//! Edge cases, determinism, and model ablations that the unit suites do
//! not cover: tiny graphs, tied weights, extreme weights, bandwidth-cap
//! ablation, and cross-run reproducibility.

use light_networks::congest::tree::build_bfs_tree;
use light_networks::congest::{Executor, Simulator};
use light_networks::dist_mst::boruvka::distributed_mst;
use light_networks::lightgraph::{generators, metrics, mst, Graph};
use light_networks::lightnet::{light_spanner, net, shallow_light_tree};

#[test]
fn two_and_three_vertex_graphs() {
    let g2 = Graph::from_edges(2, [(0, 1, 7)]).unwrap();
    let g3 = Graph::from_edges(3, [(0, 1, 2), (1, 2, 3), (0, 2, 4)]).unwrap();
    for g in [&g2, &g3] {
        let mut sim = Simulator::new(g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let m = distributed_mst(&mut sim, &tau, 1);
        assert_eq!(m.weight, mst::kruskal(g).weight);
        let slt = shallow_light_tree(&mut sim, &tau, 0, 0.5, 1);
        assert_eq!(slt.edges.len(), g.n() - 1);
        let sp = light_spanner(&mut sim, &tau, 0, 2, 0.25, 1);
        let h = g.edge_subgraph_dedup(sp.edges.iter().copied());
        assert!(h.is_connected());
        let r = net(&mut sim, &tau, 5, 0.5, 1);
        assert!(!r.points.is_empty());
    }
}

#[test]
fn all_equal_weights_resolve_by_edge_id() {
    // every weight identical: the (weight, id) tie-break must still make
    // the distributed MST unique and equal to Kruskal's
    let g = generators::complete(24, 1, 0);
    let g = Graph::from_edges(g.n(), g.edges().iter().map(|e| (e.u, e.v, 5))).unwrap();
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let d = distributed_mst(&mut sim, &tau, 3);
    let k = mst::kruskal(&g);
    assert_eq!(d.mst_edges, k.edges);
    assert_eq!(d.weight, 23 * 5);
}

#[test]
fn poly_n_weights_do_not_overflow() {
    // weights near the paper's poly(n) ceiling
    let n = 32u64;
    let big = n * n * n;
    let mut g = generators::path(32, 1);
    for v in 2..32 {
        g.add_edge(0, v, big + v as u64).unwrap();
    }
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let slt = shallow_light_tree(&mut sim, &tau, 0, 0.5, 2);
    let tree = g.edge_subgraph_dedup(slt.edges.iter().copied());
    assert!(metrics::lightness(&g, &tree).is_finite());
    let sp = light_spanner(&mut sim, &tau, 0, 2, 0.25, 2);
    assert!(!sp.edges.is_empty());
}

#[test]
fn runs_are_deterministic_in_the_seed() {
    let g = generators::erdos_renyi(48, 0.15, 40, 9);
    let run = |seed: u64| {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let sp = light_spanner(&mut sim, &tau, 0, 2, 0.25, seed);
        (sp.edges, sp.stats.rounds)
    };
    assert_eq!(
        run(7),
        run(7),
        "same seed must give identical output and rounds"
    );
    // different seeds may differ, but both stay within the bounds
    let (e1, _) = run(7);
    let (e2, _) = run(8);
    for edges in [&e1, &e2] {
        let h = g.edge_subgraph_dedup(edges.iter().copied());
        assert!(metrics::max_stretch(&g, &h) <= 3.0 * 1.25 * (1.0 + 1.0));
    }
}

#[test]
fn larger_bandwidth_cap_only_speeds_things_up() {
    // CONGEST with B-word messages: cap 4 must not change the output of
    // a deterministic computation, only reduce rounds.
    let g = generators::erdos_renyi(40, 0.15, 30, 4);
    let mut sim1 = Simulator::new(&g);
    let (tau1, _) = build_bfs_tree(&mut sim1, 0);
    let m1 = distributed_mst(&mut sim1, &tau1, 5);

    let mut sim4 = Simulator::new(&g);
    sim4.set_cap(4);
    let (tau4, _) = build_bfs_tree(&mut sim4, 0);
    let m4 = distributed_mst(&mut sim4, &tau4, 5);

    assert_eq!(m1.mst_edges, m4.mst_edges, "cap must not change the result");
    assert!(
        m4.stats.rounds <= m1.stats.rounds,
        "cap 4 took {} rounds vs {} at cap 1",
        m4.stats.rounds,
        m1.stats.rounds
    );
}

#[test]
fn heavier_than_mst_edges_are_never_needed() {
    // edges heavier than 2·w(MST) are served by the tree alone (§5)
    let mut g = generators::path(20, 1);
    g.add_edge(0, 19, 10_000).unwrap();
    let heavy_id = g.m() - 1;
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let sp = light_spanner(&mut sim, &tau, 0, 2, 0.25, 6);
    assert!(
        !sp.edges.contains(&heavy_id),
        "the heavy chord must be excluded from the spanner"
    );
    let h = g.edge_subgraph_dedup(sp.edges.iter().copied());
    assert!(metrics::max_stretch(&g, &h) <= 3.0 * 1.25 + 1e-9);
}

#[test]
fn net_on_star_with_huge_hub_distance() {
    // covering must hold even when one vertex dominates all distances
    let mut g = Graph::new(12);
    for v in 1..12 {
        g.add_edge(0, v, 1000).unwrap();
    }
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let r = net(&mut sim, &tau, 100, 0.5, 3);
    // scale 100 < min distance: everyone is a net point
    assert_eq!(r.points.len(), 12);
    let r2 = net(&mut sim, &tau, 4000, 0.5, 3);
    assert_eq!(r2.points.len(), 1, "one point covers the whole star");
}
