//! Experiment harness reproducing Table 1 of *Distributed Construction
//! of Light Networks*.
//!
//! Each `run_e*` function regenerates one experiment — the workload, the
//! parameter sweep, the baselines, and the table rows — and returns the
//! rows for the `experiments` binary, which prints each table as
//! markdown on stdout.

use congest::tree::build_bfs_tree;
use congest::Simulator;
use lightgraph::{generators, metrics, mst, Graph, NodeId};
use lightnet::{
    doubling_spanner, estimate_mst_weight, kry_slt, light_slt, light_spanner, net, net_quality,
    shallow_light_tree,
};
use sparse_spanner::{baswana_sen::baswana_sen, greedy::greedy_2k_minus_1};

/// A generic table row: label plus named numeric columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (instance / parameters).
    pub label: String,
    /// `(column name, value)` pairs.
    pub cols: Vec<(&'static str, f64)>,
}

/// Renders rows as a markdown table.
pub fn markdown_table(title: &str, rows: &[Row]) -> String {
    let mut out = format!("\n### {title}\n\n");
    if rows.is_empty() {
        return out;
    }
    out.push_str("| instance |");
    for (name, _) in &rows[0].cols {
        out.push_str(&format!(" {name} |"));
    }
    out.push_str("\n|---|");
    for _ in &rows[0].cols {
        out.push_str("---|");
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("| {} |", r.label));
        for (_, v) in &r.cols {
            if v.fract() == 0.0 && v.abs() < 1e12 {
                out.push_str(&format!(" {} |", *v as i64));
            } else {
                out.push_str(&format!(" {v:.3} |"));
            }
        }
        out.push('\n');
    }
    out
}

fn sim_with_tau(g: &Graph, rt: NodeId) -> (Simulator<'_>, congest::tree::BfsTree) {
    let mut sim = Simulator::new(g);
    let (tau, _) = build_bfs_tree(&mut sim, rt);
    (sim, tau)
}

/// E1 (Table 1 row 1, Theorem 2): light spanners for general graphs,
/// vs the greedy (quality-optimal) and Baswana–Sen (no lightness)
/// baselines.
pub fn run_e1(sizes: &[usize], ks: &[usize], seed: u64) -> Vec<Row> {
    let eps = 0.25;
    let mut rows = Vec::new();
    for family in [
        generators::Family::ErdosRenyi,
        generators::Family::TreeChords,
    ] {
        for &n in sizes {
            let g = family.generate(n, seed);
            for &k in ks {
                let (mut sim, tau) = sim_with_tau(&g, 0);
                let r = light_spanner(&mut sim, &tau, 0, k, eps, seed);
                let h = g.edge_subgraph_dedup(r.edges.iter().copied());
                let q = metrics::spanner_quality(&g, &h);

                let greedy = g.edge_subgraph(greedy_2k_minus_1(&g, k));
                let gl = metrics::lightness(&g, &greedy);

                let mut bs_sim = Simulator::new(&g);
                let bs = baswana_sen(&mut bs_sim, k, seed);
                let bsl = metrics::lightness(&g, &g.edge_subgraph_dedup(bs.edges.iter().copied()));

                rows.push(Row {
                    label: format!("{} n={} k={}", family.name(), g.n(), k),
                    cols: vec![
                        ("stretch", q.stretch),
                        ("stretch-bound", (2 * k - 1) as f64 * (1.0 + eps)),
                        ("edges", q.edges as f64),
                        ("lightness", q.lightness),
                        ("k·n^(1/k)", k as f64 * (g.n() as f64).powf(1.0 / k as f64)),
                        ("greedy-light", gl),
                        ("BS-light", bsl),
                        ("rounds", r.stats.rounds as f64),
                    ],
                });
            }
        }
    }
    rows
}

/// E1 round-scaling series: rounds vs `n^{1/2 + 1/(4k+2)}`.
pub fn run_e1_rounds(sizes: &[usize], k: usize, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let g = generators::Family::ErdosRenyi.generate(n, seed);
        let (mut sim, tau) = sim_with_tau(&g, 0);
        let r = light_spanner(&mut sim, &tau, 0, k, 0.25, seed);
        let target = (g.n() as f64).powf(0.5 + 1.0 / (4 * k + 2) as f64);
        rows.push(Row {
            label: format!("erdos-renyi n={}", g.n()),
            cols: vec![
                ("rounds", r.stats.rounds as f64),
                ("n^(1/2+1/(4k+2))", target),
                ("ratio", r.stats.rounds as f64 / target),
            ],
        });
    }
    rows
}

/// E2 (Table 1 row 2, Theorem 1): SLT tradeoff vs the KRY95 optimum.
pub fn run_e2(n: usize, eps_sweep: &[f64], seed: u64) -> Vec<Row> {
    // the comb exposes the SLT tension: the MST (unit spine) has root
    // stretch ≈ 8 while the SPT (direct shortcuts) is ~n/16 times
    // heavier than the MST
    let g = generators::comb(n, 8);
    let _ = seed;
    let rt = 0;
    let mut rows = Vec::new();
    for &eps in eps_sweep {
        let (mut sim, tau) = sim_with_tau(&g, rt);
        let slt = shallow_light_tree(&mut sim, &tau, rt, eps, seed);
        let tree = g.edge_subgraph_dedup(slt.edges.iter().copied());
        let kry = g.edge_subgraph_dedup(kry_slt(&g, rt, eps));
        rows.push(Row {
            label: format!("comb n={} eps={}", g.n(), eps),
            cols: vec![
                ("root-stretch", metrics::root_stretch(&g, &tree, rt)),
                ("lightness", metrics::lightness(&g, &tree)),
                ("kry-stretch", metrics::root_stretch(&g, &kry, rt)),
                ("kry-lightness", metrics::lightness(&g, &kry)),
                ("breakpoints", slt.breakpoints as f64),
                ("rounds", slt.stats.rounds as f64),
            ],
        });
    }
    rows
}

/// E2 inverse regime (§4.4): lightness `1+γ`, stretch `O(1/γ)`.
pub fn run_e2_inverse(n: usize, gammas: &[f64], seed: u64) -> Vec<Row> {
    let g = generators::comb(n, 8);
    let mut rows = Vec::new();
    for &gamma in gammas {
        let (edges, stats) = light_slt(&g, 0, gamma, seed);
        let tree = g.edge_subgraph_dedup(edges);
        rows.push(Row {
            label: format!("comb n={} gamma={}", g.n(), gamma),
            cols: vec![
                ("lightness", metrics::lightness(&g, &tree)),
                ("1+gamma", 1.0 + gamma),
                ("root-stretch", metrics::root_stretch(&g, &tree, 0)),
                ("rounds", stats.rounds as f64),
            ],
        });
    }
    rows
}

/// E3 (Table 1 row 3, Theorem 3): nets — exact covering/separation vs
/// the `((1+δ)∆, ∆/(1+δ))` bounds, plus round scaling.
pub fn run_e3(sizes: &[usize], deltas: &[f64], seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let g = generators::Family::Geometric.generate(n, seed);
        let scale = lightgraph::dijkstra::weighted_diameter_approx(&g) / 6;
        for &delta in deltas {
            let (mut sim, tau) = sim_with_tau(&g, 0);
            let r = net(&mut sim, &tau, scale.max(1), delta, seed);
            let (cover, sep) = net_quality(&g, &r.points);
            rows.push(Row {
                label: format!("geometric n={} delta={}", g.n(), delta),
                cols: vec![
                    ("points", r.points.len() as f64),
                    ("cover", cover as f64),
                    ("cover-bound", (scale.max(1) as f64) * (1.0 + delta)),
                    (
                        "sep",
                        if r.points.len() > 1 {
                            sep as f64
                        } else {
                            f64::NAN
                        },
                    ),
                    ("sep-bound", (scale.max(1) as f64) / (1.0 + delta)),
                    ("iters", r.iterations as f64),
                    ("rounds", r.stats.rounds as f64),
                    ("sqrt-n", (g.n() as f64).sqrt()),
                ],
            });
        }
    }
    rows
}

/// E4 (Table 1 row 4, Theorem 5): doubling spanners — lightness must
/// depend on ε but stay ~log n in n.
pub fn run_e4(sizes: &[usize], epsilons: &[f64], seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let g = generators::Family::Geometric.generate(n, seed);
        for &eps in epsilons {
            let (mut sim, tau) = sim_with_tau(&g, 0);
            let r = doubling_spanner(&mut sim, &tau, 0, eps, seed);
            let h = g.edge_subgraph_dedup(r.edges.iter().copied());
            let q = metrics::spanner_quality(&g, &h);
            rows.push(Row {
                label: format!("geometric n={} eps={}", g.n(), eps),
                cols: vec![
                    ("stretch", q.stretch),
                    ("1+eps-target", 1.0 + eps),
                    ("edges", q.edges as f64),
                    ("lightness", q.lightness),
                    ("scales", r.scales as f64),
                    ("rounds", r.stats.rounds as f64),
                ],
            });
        }
    }
    rows
}

/// E5 (Lemma 2, §3): Euler-tour round scaling given the MST fragments.
pub fn run_e5(sizes: &[usize], seed: u64) -> Vec<Row> {
    use dist_mst::{boruvka::distributed_mst, euler::distributed_euler_tour};
    let mut rows = Vec::new();
    for &n in sizes {
        let g = generators::Family::ErdosRenyi.generate(n, seed);
        let (mut sim, tau) = sim_with_tau(&g, 0);
        let m = distributed_mst(&mut sim, &tau, 0, seed);
        let tour = distributed_euler_tour(&mut sim, &tau, &m, 0);
        assert_eq!(tour.total_length, 2 * m.weight);
        rows.push(Row {
            label: format!("erdos-renyi n={}", g.n()),
            cols: vec![
                ("mst-rounds", m.stats.rounds as f64),
                ("tour-rounds", tour.stats.rounds as f64),
                ("sqrt-n", (g.n() as f64).sqrt()),
                (
                    "tour/sqrt-n",
                    tour.stats.rounds as f64 / (g.n() as f64).sqrt(),
                ),
                ("fragments", m.fragment_count() as f64),
            ],
        });
    }
    rows
}

/// E6 (Theorem 7, §8): MST-weight sandwich from net cardinalities.
pub fn run_e6(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for family in generators::Family::ALL {
        let g = family.generate(48, seed);
        let l = mst::kruskal(&g).weight;
        let (mut sim, tau) = sim_with_tau(&g, 0);
        let est = estimate_mst_weight(&mut sim, &tau, seed);
        rows.push(Row {
            label: format!("{} n={}", family.name(), g.n()),
            cols: vec![
                ("L (MST)", l as f64),
                ("psi", est.psi as f64),
                ("psi/L", est.psi as f64 / l as f64),
                ("alpha*16*log n", est.alpha * 16.0 * (g.n() as f64).log2()),
                ("scales", est.scales.len() as f64),
                ("rounds", est.stats.rounds as f64),
            ],
        });
    }
    rows
}

/// Ablation: two-phase break-point selection vs the sequential rule
/// (DESIGN.md §7) — the constant-factor lightness loss must be small.
pub fn run_slt_ablation(seed: u64) -> Vec<Row> {
    let g = generators::comb(96, 8);
    let _ = seed;
    let mut rows = Vec::new();
    for &eps in &[0.25, 0.5, 1.0] {
        let (mut sim, tau) = sim_with_tau(&g, 0);
        let two_phase = shallow_light_tree(&mut sim, &tau, 0, eps, seed);
        let tree = g.edge_subgraph_dedup(two_phase.edges.iter().copied());
        let kry = g.edge_subgraph_dedup(kry_slt(&g, 0, eps));
        let (l2, l1) = (metrics::lightness(&g, &tree), metrics::lightness(&g, &kry));
        rows.push(Row {
            label: format!("eps={eps}"),
            cols: vec![
                ("two-phase-lightness", l2),
                ("sequential-lightness", l1),
                ("factor", l2 / l1),
            ],
        });
    }
    rows
}
