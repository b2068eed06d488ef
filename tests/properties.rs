//! Property-based tests (proptest) for the core invariants: random
//! graphs, seeds and parameters — the guarantees must hold for *every*
//! sample, not just the unit-test instances.

use light_networks::congest::tree::build_bfs_tree;
use light_networks::congest::Simulator;
use light_networks::dist_mst::boruvka::distributed_mst;
use light_networks::dist_mst::euler::distributed_euler_tour;
use light_networks::lightgraph::{generators, metrics, mst, tree::RootedTree, Graph};
use light_networks::lightnet::{net, net_quality, shallow_light_tree};
use proptest::prelude::*;

/// Random connected weighted graph from a compact strategy: a seed, a
/// size, and an edge-density knob.
fn arb_graph() -> impl Strategy<Value = (Graph, u64)> {
    (8usize..40, 0u64..1_000, 1u64..4).prop_map(|(n, seed, dens)| {
        let p = dens as f64 * 2.0 / n as f64;
        (generators::erdos_renyi(n, p.min(0.9), 50, seed), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_distributed_mst_equals_kruskal((g, seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let d = distributed_mst(&mut sim, &tau, seed);
        let r = mst::kruskal(&g);
        prop_assert_eq!(d.weight, r.weight);
        prop_assert_eq!(d.mst_edges, r.edges);
    }

    #[test]
    fn prop_euler_tour_is_exact((g, seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let m = distributed_mst(&mut sim, &tau, seed);
        let tour = distributed_euler_tour(&mut sim, &tau, &m, 0);
        let t = RootedTree::from_edge_ids(&g, &m.mst_edges, 0);
        let reference = t.euler_tour();
        let (seq, times) = tour.assemble();
        prop_assert_eq!(seq, reference.seq);
        prop_assert_eq!(times, reference.times);
        prop_assert_eq!(tour.total_length, 2 * m.weight);
    }

    #[test]
    fn prop_slt_bounds((g, seed) in arb_graph(), eps in prop::sample::select(vec![0.25f64, 0.5, 1.0])) {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let slt = shallow_light_tree(&mut sim, &tau, 0, eps, seed);
        let tree = g.edge_subgraph_dedup(slt.edges.iter().copied());
        prop_assert_eq!(tree.m(), g.n() - 1);
        let stretch = metrics::root_stretch(&g, &tree, 0);
        let light = metrics::lightness(&g, &tree);
        prop_assert!(stretch <= 1.0 + 60.0 * eps, "stretch {}", stretch);
        prop_assert!(light <= 1.0 + 8.0 / eps + 0.1, "lightness {}", light);
    }

    #[test]
    fn prop_net_covering_and_separation(
        (g, seed) in arb_graph(),
        scale in 2u64..80,
        delta in prop::sample::select(vec![0.25f64, 0.5, 1.0]),
    ) {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let r = net(&mut sim, &tau, scale, delta, seed);
        prop_assert!(!r.points.is_empty());
        let (cover, sep) = net_quality(&g, &r.points);
        let alpha = ((scale as f64) * (1.0 + delta)).ceil() as u64 + 1;
        prop_assert!(cover <= alpha, "covering {} > {}", cover, alpha);
        if r.points.len() > 1 {
            let beta = ((scale as f64) / (1.0 + delta)).floor() as u64;
            prop_assert!(sep >= beta, "separation {} < {}", sep, beta);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_spanner_stretch_via_baswana_sen((g, seed) in arb_graph(), k in 2usize..4) {
        use light_networks::sparse_spanner::baswana_sen::baswana_sen;
        let mut sim = Simulator::new(&g);
        let sp = baswana_sen(&mut sim, k, seed);
        let h = g.edge_subgraph_dedup(sp.edges.iter().copied());
        let s = metrics::max_stretch(&g, &h);
        prop_assert!(s <= (2 * k - 1) as f64 + 1e-9, "stretch {}", s);
    }

    #[test]
    fn prop_le_lists_match_oracle((g, seed) in arb_graph()) {
        use light_networks::dist_sssp::le_lists::le_lists;
        use light_networks::lightgraph::{dijkstra, INF};
        let active = vec![true; g.n()];
        let mut sim = Simulator::new(&g);
        let le = le_lists(&mut sim, &active, INF, 0.0, seed);
        let ap = dijkstra::all_pairs(&g);
        // spot-check the defining property on every vertex: each list
        // entry is undominated, and the closest active vertex of any
        // radius appears
        for v in 0..g.n() {
            for &(u, d) in &le.lists[v] {
                prop_assert_eq!(d, ap[v][u]);
                let dominated = (0..g.n())
                    .any(|w| ap[v][w] <= d && le.rank[w] < le.rank[u]);
                prop_assert!(!dominated, "entry ({}, {}) at {} dominated", u, d, v);
            }
            // the global rank-minimum within any ball is in the list
            let r = 25;
            let expect = (0..g.n())
                .filter(|&u| ap[v][u] <= r)
                .min_by_key(|&u| le.rank[u]);
            prop_assert_eq!(le.first_within(v, r), expect);
        }
    }
}
