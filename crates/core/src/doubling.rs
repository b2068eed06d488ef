//! Light spanners for doubling graphs (§7, Theorem 5).
//!
//! For every distance scale `∆ = (1+ε)^i` up to the MST weight:
//! construct a net with covering radius `ε∆/2` (Theorem 3 with
//! `δ = 1/2`), then connect every pair of net points within `2∆` by an
//! (approximate) shortest path, using bounded multi-source explorations
//! with path reporting (the \[EN16\] path-reporting hopset substitute —
//! the actual paths enter the spanner, and the packing property bounds
//! how many explorations cross any vertex).
//!
//! Quality (Theorem 5): stretch `1 + O(ε)` by the scale induction,
//! lightness `ε^{-O(ddim)}·log n` by the packing argument, size
//! `n·ε^{-O(ddim)}·log n`.

use crate::nets::net;
use congest::obs;
use congest::tree::BfsTree;
use congest::{Executor, RunStats};
use dist_mst::boruvka::distributed_mst;
use dist_sssp::bellman::multi_source_bounded;
use lightgraph::{EdgeId, NodeId, Weight};
use std::collections::HashSet;

/// Result of the doubling-spanner construction.
#[derive(Debug, Clone)]
pub struct DoublingSpanner {
    /// Spanner edge ids (sorted, deduplicated).
    pub edges: Vec<EdgeId>,
    /// Number of distance scales processed.
    pub scales: usize,
    /// Rounds/messages of the whole construction.
    pub stats: RunStats,
}

/// Builds a `(1 + O(ε))`-spanner for (doubling) graphs.
///
/// The stretch constant is the paper's `c ≤ 30` (§7.2); callers wanting
/// a strict `1+ε` guarantee should pass `ε/30`. Lightness and size are
/// only *bounded* when the input has small doubling dimension; the
/// algorithm itself runs on any graph.
///
/// Deterministic under the `congest::exec` engine contract — identical
/// edges, scales and `RunStats` on the simulator and the parallel
/// engine (property-tested in `crates/engine/tests/equivalence.rs`;
/// reachable from the `scenario` runner as `doubling`).
pub fn doubling_spanner<'g>(
    sim: &mut impl Executor<'g>,
    tau: &BfsTree,
    epsilon: f64,
    seed: u64,
) -> DoublingSpanner {
    assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0,1]");
    let start = sim.total();
    let g = sim.graph();
    let n = g.n();
    if n <= 1 {
        return DoublingSpanner {
            edges: Vec::new(),
            scales: 0,
            stats: RunStats::default(),
        };
    }

    // The MST weight bounds the largest useful scale; the distributed
    // MST also serves as the connectivity backbone of the spanner (the
    // lightness budget always affords it: it costs lightness 1).
    let mst = obs::span(sim, "mst", |sim| distributed_mst(sim, tau, seed));
    let l_total = mst.weight as f64;
    let w_min = g.min_weight().max(1) as f64;

    let mut chosen: HashSet<EdgeId> = mst.mst_edges.iter().copied().collect();
    let mut scales = 0;
    let mut delta_scale = w_min / (1.0 + epsilon);
    while delta_scale <= l_total * (1.0 + epsilon) {
        scales += 1;
        let big_delta = delta_scale;
        delta_scale *= 1.0 + epsilon;

        // Net with covering radius ε∆/2: Theorem 3 with δ = 1/2 and
        // parameter ∆' = ε∆/3, giving ((3/2)·∆', ∆'·(2/3)) =
        // (ε∆/2, 2ε∆/9)-net.
        let net_param = ((epsilon * big_delta) / 3.0).ceil().max(1.0) as Weight;
        let net_r = obs::span(sim, "net", |sim| {
            net(sim, tau, net_param, 0.5, seed ^ (scales as u64) << 7)
        });

        // Connect net points within 2∆ by real shortest paths.
        let bound = (2.0 * big_delta).ceil() as Weight;
        let ms = obs::span(sim, "connect", |sim| {
            multi_source_bounded(sim, &net_r.points, bound, u64::MAX)
        });
        let net_set: HashSet<NodeId> = net_r.points.iter().copied().collect();
        for &v in &net_r.points {
            // v sees every source u that reached it within 2∆
            let sources: Vec<NodeId> = ms
                .reached(v)
                .map(|(u, _, _)| u)
                .filter(|&u| u < v && net_set.contains(&u))
                .collect();
            for u in sources {
                if let Some(path) = ms.path_from(u, v) {
                    for pair in path.windows(2) {
                        let (_, e) = g
                            .edge_between(pair[0], pair[1])
                            .expect("path uses real edges");
                        chosen.insert(e);
                    }
                }
            }
        }
    }

    let mut edges: Vec<EdgeId> = chosen.into_iter().collect();
    edges.sort_unstable();
    let stats = sim.total().since(start);
    DoublingSpanner {
        edges,
        scales,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::tree::build_bfs_tree;
    use congest::Simulator;
    use lightgraph::{generators, metrics};

    fn check(
        g: &lightgraph::Graph,
        eps: f64,
        seed: u64,
    ) -> (metrics::SpannerQuality, DoublingSpanner) {
        let mut sim = Simulator::new(g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let r = doubling_spanner(&mut sim, &tau, eps, seed);
        let h = g.edge_subgraph_dedup(r.edges.iter().copied());
        let q = metrics::spanner_quality(g, &h);
        assert!(
            q.stretch <= 1.0 + 30.0 * eps + 1e-9,
            "stretch {} exceeds 1 + 30ε for ε={eps}",
            q.stretch
        );
        (q, r)
    }

    #[test]
    fn stretch_on_geometric_graphs() {
        let g = generators::random_geometric(40, 0.35, 1);
        check(&g, 0.5, 1);
        check(&g, 0.25, 1);
    }

    #[test]
    fn stretch_on_grids_and_paths() {
        check(&generators::grid(6, 6, 8, 2), 0.5, 2);
        check(&generators::path(30, 5), 0.5, 3);
    }

    #[test]
    fn smaller_epsilon_gives_better_stretch_more_weight() {
        let g = generators::random_geometric(36, 0.4, 4);
        let (q_coarse, _) = check(&g, 1.0, 4);
        let (q_fine, _) = check(&g, 0.125, 4);
        assert!(q_fine.stretch <= q_coarse.stretch + 1e-9);
        assert!(q_fine.lightness + 1e-9 >= q_coarse.lightness);
    }

    #[test]
    fn lightness_is_bounded_on_doubling_inputs() {
        // On a plane-like instance the lightness must not explode with n.
        let g1 = generators::random_geometric(30, 0.4, 5);
        let g2 = generators::random_geometric(60, 0.3, 5);
        let (q1, _) = check(&g1, 0.5, 5);
        let (q2, _) = check(&g2, 0.5, 5);
        // ε^{-O(ddim)}·log n with ddim ≈ 2: generous absolute cap, and
        // sublinear growth between the two sizes.
        assert!(q1.lightness < 60.0, "lightness {} too large", q1.lightness);
        assert!(q2.lightness < 80.0, "lightness {} too large", q2.lightness);
    }

    #[test]
    fn spanner_contains_connectivity() {
        let g = generators::random_geometric(30, 0.35, 6);
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let r = doubling_spanner(&mut sim, &tau, 0.5, 6);
        let h = g.edge_subgraph_dedup(r.edges.iter().copied());
        assert!(h.is_connected());
        assert!(r.scales > 0);
    }
}
