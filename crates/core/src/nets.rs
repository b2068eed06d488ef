//! Distributed nets for weighted graphs (§6, Theorem 3).
//!
//! An `(α, β)`-net is `α`-covering (every vertex has a net point within
//! `α`) and `β`-separated (net points are pairwise more than `β`
//! apart). The algorithm is the MIS-flavoured iteration of §6:
//!
//! 1. sample a permutation π (every vertex hashes its rank from the
//!    run seed and the iteration, so nothing is sent),
//! 2. compute LE lists of the active vertices w.r.t. an auxiliary
//!    `(1+δ)`-approximation `H` (\[FL16\] substitute, see `dist-sssp`),
//! 3. every active vertex that is first in π within its `∆`-ball
//!    (w.r.t. `H`) joins the net,
//! 4. a bounded multi-source exploration from the new net points
//!    deactivates every vertex within `(1+δ)·∆`,
//! 5. repeat until no active vertices remain — `O(log n)` iterations
//!    w.h.p. (the killing argument of §6).
//!
//! The result is a `((1+δ)·∆, ∆/(1+δ))`-net, exactly as in Theorem 3.

use congest::collective;
use congest::obs;
use congest::tree::BfsTree;
use congest::{Executor, RunStats};
use dist_sssp::bellman::multi_source_bounded;
use dist_sssp::le_lists::le_lists;
use lightgraph::{NodeId, Weight};

/// Result of the net construction.
#[derive(Debug, Clone)]
pub struct NetResult {
    /// The net points, sorted.
    pub points: Vec<NodeId>,
    /// Iterations until all vertices became inactive.
    pub iterations: usize,
    /// Rounds/messages of the construction.
    pub stats: RunStats,
}

/// Builds a `((1+δ)·∆, ∆/(1+δ))`-net (Theorem 3).
///
/// `delta > 0` is the slack the paper introduces to tolerate the
/// auxiliary graph's approximation; `big_delta` is `∆`. All randomness
/// derives from `seed`, so the construction is deterministic under the
/// `congest::exec` engine contract — identical points, iterations and
/// `RunStats` on the simulator and the parallel engine (property-tested
/// in `crates/engine/tests/equivalence.rs`; reachable from the
/// `scenario` runner as `nets`, keys `net_delta`/`net_slack`).
///
/// # Panics
/// Panics if the iteration count exceeds `20·log₂n + 20` — the
/// `O(log n)` bound holds w.h.p., so this indicates a seed catastrophe
/// rather than an expected outcome.
pub fn net<'g>(
    sim: &mut impl Executor<'g>,
    tau: &BfsTree,
    big_delta: Weight,
    delta: f64,
    seed: u64,
) -> NetResult {
    assert!(delta > 0.0, "delta must be positive");
    assert!(big_delta >= 1, "the net scale must be at least 1");
    let start = sim.total();
    let n = sim.graph().n();
    let mut active = vec![true; n];
    let mut points: Vec<NodeId> = Vec::new();
    let deact_bound = ((big_delta as f64) * (1.0 + delta)).ceil() as Weight;
    let max_iters = 20 * (usize::BITS - n.max(2).leading_zeros()) as usize + 20;

    let mut iterations = 0;
    while active.iter().any(|&a| a) {
        iterations += 1;
        assert!(
            iterations <= max_iters,
            "net construction exceeded {max_iters} iterations"
        );
        // (1)-(2) permutation + LE lists w.r.t. the auxiliary H.
        let le = obs::span(sim, "le_lists", |sim| {
            le_lists(
                sim,
                &active,
                big_delta,
                delta,
                seed ^ (iterations as u64) << 13,
            )
        });
        // (3) join test (local).
        let new_points: Vec<NodeId> = (0..n)
            .filter(|&v| active[v] && le.is_local_minimum(v, big_delta))
            .collect();
        debug_assert!(
            !new_points.is_empty(),
            "some active vertex is always the global π-minimum of its ball"
        );
        // (4) deactivation by bounded multi-source exploration.
        let ms = obs::span(sim, "deactivate", |sim| {
            multi_source_bounded(sim, &new_points, deact_bound, u64::MAX)
        });
        for v in 0..n {
            if active[v] && ms.nearest(v).is_some() {
                active[v] = false;
            }
        }
        points.extend(&new_points);
        // (5) global termination census: a count of the vertices still
        // active, summed over τ (one two-word message per τ edge).
        let active_ref = &active;
        let (census, _) = obs::span(sim, "census", |sim| {
            collective::sum(sim, tau, |v| [active_ref[v] as u64, 0])
        });
        if census[0] == 0 {
            break;
        }
    }

    points.sort_unstable();
    let stats = sim.total().since(start);
    NetResult {
        points,
        iterations,
        stats,
    }
}

/// Checks the net properties exactly (sequential oracle used by tests
/// and experiments): returns `(max covering radius, min pairwise
/// separation)` of `points` in `g`.
pub fn net_quality(g: &lightgraph::Graph, points: &[NodeId]) -> (Weight, Weight) {
    use lightgraph::dijkstra;
    assert!(!points.is_empty());
    let mut cover: Weight = 0;
    let mut nearest = vec![lightgraph::INF; g.n()];
    for &p in points {
        let sp = dijkstra::shortest_paths(g, p);
        for v in 0..g.n() {
            nearest[v] = nearest[v].min(sp.dist[v]);
        }
    }
    for v in 0..g.n() {
        cover = cover.max(nearest[v]);
    }
    let mut sep = lightgraph::INF;
    for (i, &p) in points.iter().enumerate() {
        let sp = dijkstra::shortest_paths(g, p);
        for &q in &points[i + 1..] {
            sep = sep.min(sp.dist[q]);
        }
    }
    (cover, sep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::tree::build_bfs_tree;
    use congest::Simulator;
    use lightgraph::generators;

    fn check_net(g: &lightgraph::Graph, big_delta: Weight, delta: f64, seed: u64) -> NetResult {
        let mut sim = Simulator::new(g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let r = net(&mut sim, &tau, big_delta, delta, seed);
        assert!(!r.points.is_empty());
        let (cover, sep) = net_quality(g, &r.points);
        let alpha = ((big_delta as f64) * (1.0 + delta)).ceil() as Weight + 1;
        assert!(
            cover <= alpha,
            "covering radius {cover} exceeds (1+δ)∆ = {alpha}"
        );
        if r.points.len() > 1 {
            let beta = ((big_delta as f64) / (1.0 + delta)).floor() as Weight;
            assert!(sep >= beta, "separation {sep} below ∆/(1+δ) = {beta}");
        }
        r
    }

    #[test]
    fn net_properties_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi(50, 0.12, 30, seed);
            check_net(&g, 25, 0.5, seed);
            check_net(&g, 60, 0.25, seed);
        }
    }

    #[test]
    fn net_properties_on_structured_graphs() {
        check_net(&generators::path(40, 5), 20, 0.5, 1);
        check_net(&generators::grid(7, 7, 10, 2), 15, 0.5, 2);
        check_net(&generators::random_geometric(50, 0.3, 3), 100_000, 0.5, 3);
        check_net(&generators::star(25, 8, 4), 4, 0.5, 4);
    }

    #[test]
    fn tiny_scale_makes_everyone_a_net_point() {
        // ∆ below the minimum distance: every vertex is its own ball's
        // minimum, so the net is V.
        let g = generators::path(10, 10);
        let r = check_net(&g, 5, 0.5, 5);
        assert_eq!(r.points.len(), 10);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn huge_scale_yields_single_point() {
        let g = generators::path(10, 1);
        let r = check_net(&g, 1000, 0.5, 6);
        assert_eq!(r.points.len(), 1);
    }

    #[test]
    fn each_census_costs_one_message_per_tau_edge() {
        let g = generators::random_geometric(50, 0.3, 3);
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let (r, spans) = obs::collect_spans(|| net(&mut sim, &tau, 100_000, 0.5, 7));
        assert!(r.iterations > 1, "the census must run more than once");
        let census: Vec<_> = spans
            .flatten()
            .into_iter()
            .filter(|(path, _)| path == "census")
            .map(|(_, span)| span)
            .collect();
        assert_eq!(census.len(), r.iterations, "one census per iteration");
        let iterations = r.iterations as u64;
        let delivered: u64 = census.iter().map(|span| span.delivered()).sum();
        let rounds: u64 = census.iter().map(|span| span.stats.rounds).sum();
        assert_eq!(delivered, iterations * (g.n() as u64 - 1), "delivered");
        assert_eq!(rounds, iterations * tau.height(), "rounds");
    }

    #[test]
    fn iterations_are_logarithmic() {
        // (graph, ∆, net seed, whether the run must iterate): the dense
        // case ends in one iteration, the sparse ones take two, so the
        // bound is checked on runs that iterate.
        let dense = generators::erdos_renyi(100, 0.08, 20, 7);
        let sparse = generators::erdos_renyi(400, 0.02, 20, 1);
        let cases = [
            (&dense, 15, 7, false),
            (&sparse, 10, 1, true),
            (&sparse, 10, 3, true),
            (&sparse, 10, 7, true),
        ];
        for (g, big_delta, seed, iterates) in cases {
            let r = check_net(g, big_delta, 0.5, seed);
            let log_n = (g.n() as f64).log2().ceil() as usize;
            assert!(
                r.iterations <= log_n,
                "n = {}, seed {seed}: {} iterations is beyond ⌈log₂ n⌉ = {log_n}",
                g.n(),
                r.iterations
            );
            if iterates {
                assert!(
                    r.iterations >= 2,
                    "n = {}, seed {seed}: one iteration checks no bound",
                    g.n()
                );
            }
        }
    }
}
