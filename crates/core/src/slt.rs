//! Shallow-Light Trees (§4, Theorem 1).
//!
//! A `(1+ε, 1+O(1/ε))`-SLT combines the MST `T` with an approximate
//! shortest-path tree `T_rt`:
//!
//! 1. compute the MST, its Euler tour `L` (§3), and an approximate SPT,
//! 2. select *break points* on `L` in two phases — a parallel
//!    sequential scan inside `√n`-sized tour intervals (BP₁) and a
//!    centralized filtering of the interval heads at `rt` (BP₂), both
//!    enforcing the gap rule `d_L(prev, x) > ε·d_{T_rt}(rt, x)`,
//! 3. build `H = T ∪ ⋃_{b∈BP} P_b` where `P_b` is the `T_rt` path from
//!    `rt` to `b` (realized by marking the vertices whose `T_rt` subtree
//!    contains a break point),
//! 4. return another approximate SPT, computed *inside `H`*.
//!
//! Corollary 3 gives `w(H) ≤ (1 + 4/ε)·w(T)`; Lemma 4 gives root
//! stretch `1 + O(ε)`. The inverse tradeoff (lightness `1+γ`, stretch
//! `O(1/γ)`) is obtained by the \[BFN16\] reweighting reduction
//! ([`light_slt`], §4.4, Lemma 5).

use crate::tour_sweep::{tour_sweep, Direction, TourRouting};
use congest::collective;
use congest::obs;
use congest::tree::{build_bfs_tree, BfsTree};
use congest::{Ctx, Executor, Message, Program, RunStats, Simulator};
use dist_mst::boruvka::distributed_mst;
use dist_mst::euler::distributed_euler_tour;
use dist_sssp::landmark::{approx_spt, SptConfig};
use lightgraph::{EdgeId, Graph, NodeId, Weight};

/// Result of the distributed SLT construction.
#[derive(Debug, Clone)]
pub struct SltResult {
    /// The root.
    pub root: NodeId,
    /// Edge ids (in the input graph) of the final tree `T_SLT`.
    pub edges: Vec<EdgeId>,
    /// Number of break points selected (BP₁ + BP₂).
    pub breakpoints: usize,
    /// Rounds/messages of the whole construction (MST + tour + SPTs +
    /// selection + H + final SPT).
    pub stats: RunStats,
}

const TAG_MARK: u64 = 60;

/// Upward marking of `A_BP` on the approximate SPT: every vertex whose
/// `T_rt` subtree contains a break point adds its parent edge.
struct MarkUp {
    parent: Option<NodeId>,
    marked: bool,
}

impl Program for MarkUp {
    type Output = bool;
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if self.marked {
            if let Some(p) = self.parent {
                ctx.send(p, Message::words(&[TAG_MARK]));
            }
        }
    }
    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        if !inbox.is_empty() && !self.marked {
            self.marked = true;
            if let Some(p) = self.parent {
                ctx.send(p, Message::words(&[TAG_MARK]));
            }
        }
    }
    /// Marks are idempotent: co-queued duplicates collapse to one.
    /// (Each node marks at most once, so this fires only under caps
    /// larger than the mark fan-in — declared for completeness; the
    /// SLT's message volume lives in its `approx_spt` phases, whose
    /// multi-source relaxation combiner does the heavy lifting.)
    fn combine_key(&self, msg: &Message) -> Option<congest::Word> {
        debug_assert_eq!(msg.word(0), TAG_MARK);
        Some(TAG_MARK)
    }
    fn combine(&self, queued: &Message, _incoming: &Message) -> Message {
        queued.clone()
    }
    fn finish(self) -> bool {
        self.marked
    }
}

/// The break-point gap rule (Equation (2)).
fn joins(r_x: Weight, r_prev: Weight, d_rt: Weight, epsilon: f64) -> bool {
    (r_x - r_prev) as f64 > epsilon * d_rt as f64
}

/// Builds a `(1 + O(ε), 1 + O(1/ε))`-SLT rooted at `rt`.
///
/// `epsilon ∈ (0, 1]` trades root stretch (`1 + O(ε)`) against
/// lightness (`1 + O(1/ε)`); for the inverse regime use [`light_slt`].
///
/// # Panics
/// Panics if the graph is disconnected or `epsilon` is not positive.
pub fn shallow_light_tree<'g>(
    sim: &mut impl Executor<'g>,
    tau: &BfsTree,
    rt: NodeId,
    epsilon: f64,
    seed: u64,
) -> SltResult {
    shallow_light_tree_with(sim, tau, rt, epsilon, seed, None, None)
}

/// [`shallow_light_tree`] with explicit approximate-SPT knobs: both
/// internal [`approx_spt`] phases (the SPT of `G` and the final SPT
/// inside `H`) use `spt_landmarks` / `spt_hop_bound` in place of the
/// adaptive defaults (see [`SptConfig`]) — the deterministic ablation
/// surface the `scenario` runner exposes as `landmarks` / `hop_bound`.
pub fn shallow_light_tree_with<'g>(
    sim: &mut impl Executor<'g>,
    tau: &BfsTree,
    rt: NodeId,
    epsilon: f64,
    seed: u64,
    spt_landmarks: Option<usize>,
    spt_hop_bound: Option<u64>,
) -> SltResult {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let spt_cfg = |s: u64| SptConfig {
        landmarks: spt_landmarks,
        hop_bound: spt_hop_bound,
        ..SptConfig::new(s)
    };
    let start = sim.total();
    let g = sim.graph();
    let n = g.n();
    if n <= 1 {
        return SltResult {
            root: rt,
            edges: Vec::new(),
            breakpoints: 0,
            stats: RunStats::default(),
        };
    }

    // (1) MST, Euler tour, approximate SPT.
    let mst = obs::span(sim, "mst", |sim| distributed_mst(sim, tau, seed));
    let tour = obs::span(sim, "tour", |sim| {
        distributed_euler_tour(sim, tau, &mst, rt)
    });
    let routing = TourRouting::new(&tour);
    let spt = obs::span(sim, "spt", |sim| {
        approx_spt(sim, tau, rt, &spt_cfg(seed ^ 0x51f7))
    });

    let (seq, times) = tour.assemble();
    let alpha = (n as f64).sqrt().ceil() as usize;

    // (2a) BP₁: parallel sequential scans inside the intervals.
    let (times_ref, dist_ref, seq_ref) = (&times, &spt.dist, &seq);
    let eps = epsilon;
    let (sweep_out, _) = obs::span(sim, "bp1", |sim| {
        tour_sweep(
            sim,
            &routing,
            Direction::LeftToRight,
            |p| p % alpha == 0,
            |p| [times[p], 0],
            |v| {
                move |pos: usize, tok: [u64; 2]| {
                    debug_assert_eq!(seq_ref[pos], v);
                    if joins(times_ref[pos], tok[0], dist_ref[v], eps) {
                        [times_ref[pos], 0]
                    } else {
                        tok
                    }
                }
            },
        )
    });
    // derive BP₁ membership locally (same rule the sweep applied)
    let mut is_bp = vec![false; n];
    for (v, recs) in sweep_out.iter().enumerate() {
        for &(pos, tok) in recs {
            if joins(times[pos], tok[0], spt.dist[v], eps) {
                is_bp[v] = true;
            }
        }
    }

    // (2b) BP₂: heads upcast (position, R, d_rt) through the eager
    // merged gather (positions are unique keys); rt filters with the
    // same sequential rule and unicasts each selected position to the
    // vertex that owns it — `Σ depth` deliveries instead of the
    // `|BP₂| · n` the old broadcast paid.
    let bp2 = obs::span(sim, "bp2", |sim| {
        let (heads, _) = collective::gather_merged(sim, tau, |v| {
            routing.positions[v]
                .iter()
                .filter(|&&p| p % alpha == 0)
                .map(|&p| (p as u64, [times[p], dist_ref[v]]))
                .collect()
        });
        let mut bp2: Vec<u64> = Vec::new();
        let mut last_r: Weight = 0; // x_0 = rt joins BP₂ first
        for (&pos, &[r, d]) in &heads {
            if pos == 0 {
                bp2.push(0);
                last_r = r;
                continue;
            }
            if joins(r, last_r, d, eps) {
                bp2.push(pos);
                last_r = r;
            }
        }
        let items: Vec<(NodeId, collective::Item)> = bp2
            .iter()
            .map(|&p| (seq_ref[p as usize], (p, [1, 0])))
            .collect();
        let (recv, _) = collective::downcast(sim, tau, items);
        debug_assert!(bp2
            .iter()
            .all(|&p| recv[seq_ref[p as usize]].iter().any(|&(k, _)| k == p)));
        bp2
    });
    for &p in &bp2 {
        is_bp[seq[p as usize]] = true;
    }
    is_bp[rt] = true;
    let breakpoints = is_bp.iter().filter(|&&b| b).count();

    // (3) H = T ∪ paths: mark A_BP up the SPT and add parent edges.
    let is_bp_ref = &is_bp;
    let spt_parent = &spt.parent;
    let (marked, _) = obs::span(sim, "mark", |sim| {
        sim.run(|v, _| MarkUp {
            parent: spt_parent[v],
            marked: is_bp_ref[v],
        })
    });
    let mut h_edges: Vec<EdgeId> = mst.mst_edges.clone();
    for v in 0..n {
        if v != rt && marked[v] {
            if let Some(p) = spt.parent[v] {
                let e = g
                    .neighbors(v)
                    .iter()
                    .find(|&&(u, _, _)| u == p)
                    .map(|&(_, _, e)| e)
                    .expect("SPT edge exists");
                h_edges.push(e);
            }
        }
    }

    // (4) final approximate SPT inside H. The span measures the
    // sub-executor, so nested `approx_spt` spans attribute the H-run;
    // `H` spans the same vertex set as `G`, so the per-node counters
    // charge straight back alongside the stats.
    let (h_graph, id_map) = g.edge_subgraph_with_map(h_edges);
    let mut h_sim = sim.sub(&h_graph);
    let final_spt = obs::span(&mut h_sim, "final_spt", |h_sim| {
        let (h_tau, _) = build_bfs_tree(h_sim, rt);
        approx_spt(h_sim, &h_tau, rt, &spt_cfg(seed ^ 0x7e57))
    });
    let h_total = h_sim.total();
    let h_frontier = h_sim.frontier_total();
    sim.charge(h_total);
    sim.charge_frontier(h_frontier);
    if let Some(ns) = h_sim.node_stats() {
        sim.charge_node_stats(ns);
    }
    let mut edges: Vec<EdgeId> = final_spt
        .tree_edges(&h_graph)
        .into_iter()
        .map(|e| id_map[e])
        .collect();
    edges.sort_unstable();

    let stats = sim.total().since(start);
    SltResult {
        root: rt,
        edges,
        breakpoints,
        stats,
    }
}

/// The inverse tradeoff (§4.4): lightness `1 + γ`, root stretch
/// `O(1/γ)`, via the \[BFN16\] reweighting reduction (Lemma 5).
///
/// MST edges are scaled down by `δ = γ/5` (5 bounds the base
/// algorithm's lightness at ε = 1), the base SLT runs on the reweighted
/// graph, and the MST is added back. Reweighting needs only `δ`,
/// `w(e)`, and MST membership — all locally known — so it ports to
/// CONGEST directly, as the paper notes.
pub fn light_slt(g: &Graph, rt: NodeId, gamma: f64, seed: u64) -> (Vec<EdgeId>, RunStats) {
    assert!(gamma > 0.0 && gamma < 1.0, "gamma must be in (0,1)");
    let delta = gamma / 5.0;
    let scale: u64 = 1 << 16;
    let mst = lightgraph::mst::kruskal(g);
    let in_mst: std::collections::HashSet<EdgeId> = mst.edges.iter().copied().collect();
    let mut g2 = Graph::new(g.n());
    for (id, e) in g.edges().iter().enumerate() {
        let w = if in_mst.contains(&id) {
            (((e.w * scale) as f64) * delta).ceil() as Weight
        } else {
            e.w * scale
        };
        g2.add_edge(e.u, e.v, w.max(1))
            .expect("valid reweighted edge");
    }
    let mut sim = Simulator::new(&g2);
    let (tau, _) = build_bfs_tree(&mut sim, rt);
    let base = shallow_light_tree(&mut sim, &tau, rt, 1.0, seed);
    let mut edges = base.edges;
    edges.extend(&mst.edges);
    edges.sort_unstable();
    edges.dedup();
    (edges, sim.total())
}

/// Sequential Khuller–Raghavachari–Young SLT \[KRY95\] — the optimal
/// tradeoff baseline: lightness `1 + 2/ε`, root stretch `1 + ε`
/// (stated there as lightness `α`, stretch `1 + 2/(α−1)`).
pub fn kry_slt(g: &Graph, rt: NodeId, epsilon: f64) -> Vec<EdgeId> {
    let n = g.n();
    if n <= 1 {
        return Vec::new();
    }
    let mst = lightgraph::mst::kruskal(g);
    let t = lightgraph::tree::RootedTree::from_edge_ids(g, &mst.edges, rt);
    let tour = t.euler_tour();
    let spt = lightgraph::dijkstra::shortest_paths(g, rt);

    // sequential break-point scan over the whole tour
    let mut h_edges: Vec<EdgeId> = mst.edges.clone();
    let mut last_r: Weight = 0;
    for j in 1..tour.len() {
        let v = tour.seq[j];
        if joins(tour.times[j], last_r, spt.dist[v], epsilon) {
            last_r = tour.times[j];
            if let Some(path) = spt.path_to(v) {
                h_edges.extend(path);
            }
        }
    }
    let (h, map) = g.edge_subgraph_with_map(h_edges);
    let final_spt = lightgraph::dijkstra::shortest_paths(&h, rt);
    let mut out: Vec<EdgeId> = (0..n)
        .filter_map(|v| final_spt.parent[v].map(|(_, e)| map[e]))
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightgraph::{generators, metrics};

    fn check_slt(g: &Graph, rt: NodeId, eps: f64, seed: u64) -> (f64, f64) {
        let mut sim = Simulator::new(g);
        let (tau, _) = build_bfs_tree(&mut sim, rt);
        let r = shallow_light_tree(&mut sim, &tau, rt, eps, seed);
        assert_eq!(r.edges.len(), g.n() - 1, "SLT must be a spanning tree");
        let h = g.edge_subgraph_dedup(r.edges.iter().copied());
        assert!(h.is_connected());
        let stretch = metrics::root_stretch(g, &h, rt);
        let light = metrics::lightness(g, &h);
        // Lemma 4 + final SPT: stretch ≤ (1+ε)(1+25ε) ≈ 1 + O(ε);
        // Corollary 3: lightness ≤ 1 + 4/ε (we allow 2x slack for the
        // approximate SPT's ε and integer rounding).
        assert!(
            stretch <= 1.0 + 60.0 * eps,
            "root stretch {stretch} too large for eps {eps}"
        );
        assert!(
            light <= 1.0 + 8.0 / eps + 0.1,
            "lightness {light} too large for eps {eps}"
        );
        (stretch, light)
    }

    #[test]
    fn slt_bounds_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi(60, 0.12, 40, seed);
            check_slt(&g, 0, 0.5, seed);
        }
    }

    #[test]
    fn slt_bounds_across_epsilon() {
        let g = generators::caterpillar(15, 3, 4);
        for &eps in &[0.25, 0.5, 1.0] {
            check_slt(&g, 0, eps, 7);
        }
    }

    #[test]
    fn slt_on_structured_graphs() {
        check_slt(&generators::grid(7, 7, 20, 1), 0, 0.5, 1);
        check_slt(&generators::random_geometric(50, 0.3, 2), 3, 0.5, 2);
        check_slt(&generators::star(30, 9, 3), 0, 0.5, 3);
    }

    #[test]
    fn tradeoff_moves_in_the_right_direction() {
        // smaller eps => better stretch; larger eps => better lightness
        let g = generators::caterpillar(20, 3, 9);
        let (s_small, _l_small) = check_slt(&g, 0, 0.2, 5);
        let (_s_big, l_big) = check_slt(&g, 0, 1.0, 5);
        let (_, l_small) = check_slt(&g, 0, 0.2, 5);
        let (s_big, _) = check_slt(&g, 0, 1.0, 5);
        assert!(
            s_small <= s_big + 1e-9,
            "stretch should improve with smaller eps"
        );
        assert!(
            l_big <= l_small + 1e-9,
            "lightness should improve with larger eps"
        );
    }

    #[test]
    fn light_slt_inverse_tradeoff() {
        let g = generators::caterpillar(15, 3, 11);
        for &gamma in &[0.25, 0.5] {
            let (edges, _) = light_slt(&g, 0, gamma, 13);
            let h = g.edge_subgraph_dedup(edges.iter().copied());
            let light = metrics::lightness(&g, &h);
            let stretch = metrics::root_stretch(&g, &h, 0);
            assert!(
                light <= 1.0 + gamma + 0.05,
                "lightness {light} exceeds 1+γ for γ={gamma}"
            );
            assert!(
                stretch <= 1.0 + 120.0 / gamma,
                "stretch {stretch} not O(1/γ) for γ={gamma}"
            );
        }
    }

    #[test]
    fn kry_baseline_tradeoff() {
        let g = generators::caterpillar(15, 3, 17);
        for &eps in &[0.25, 0.5, 1.0] {
            let edges = kry_slt(&g, 0, eps);
            let h = g.edge_subgraph_dedup(edges.iter().copied());
            assert_eq!(h.m(), g.n() - 1);
            let stretch = metrics::root_stretch(&g, &h, 0);
            let light = metrics::lightness(&g, &h);
            assert!(stretch <= 1.0 + 30.0 * eps, "KRY stretch {stretch}");
            assert!(light <= 1.0 + 4.0 / eps, "KRY lightness {light}");
        }
    }

    #[test]
    fn slt_on_tiny_graphs() {
        let g = Graph::from_edges(2, [(0, 1, 5)]).unwrap();
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let r = shallow_light_tree(&mut sim, &tau, 0, 0.5, 1);
        assert_eq!(r.edges, vec![0]);
    }
}
