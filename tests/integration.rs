//! End-to-end integration tests spanning every crate: generator →
//! CONGEST simulator → distributed MST → Euler tour → SLT / spanners /
//! nets, validated against the sequential oracles.

use light_networks::congest::tree::build_bfs_tree;
use light_networks::congest::{Executor, Simulator};
use light_networks::dist_mst::{boruvka::distributed_mst, euler::distributed_euler_tour};
use light_networks::lightgraph::{dijkstra, generators, metrics, mst, tree::RootedTree};
use light_networks::lightnet::{
    doubling_spanner, estimate_mst_weight, kry_slt, light_spanner, net, net_quality,
    shallow_light_tree,
};
use light_networks::sparse_spanner::{baswana_sen::baswana_sen, greedy::greedy_2k_minus_1};

#[test]
fn full_pipeline_on_every_family() {
    for family in generators::Family::ALL {
        let g = family.generate(48, 3);
        let rt = 0;
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, rt);

        // distributed MST == Kruskal
        let dmst = distributed_mst(&mut sim, &tau, 7);
        let reference = mst::kruskal(&g);
        assert_eq!(dmst.weight, reference.weight, "family {}", family.name());
        assert_eq!(dmst.mst_edges, reference.edges, "family {}", family.name());

        // distributed Euler tour == sequential tour of the same tree
        let tour = distributed_euler_tour(&mut sim, &tau, &dmst, rt);
        let t = RootedTree::from_edge_ids(&g, &dmst.mst_edges, rt);
        let (seq, times) = tour.assemble();
        let expected = t.euler_tour();
        assert_eq!(seq, expected.seq, "family {}", family.name());
        assert_eq!(times, expected.times, "family {}", family.name());
    }
}

#[test]
fn slt_beats_both_extremes_on_every_family() {
    for family in generators::Family::ALL {
        let g = family.generate(40, 11);
        let rt = 0;
        let eps = 0.5;
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, rt);
        let slt = shallow_light_tree(&mut sim, &tau, rt, eps, 11);
        let tree = g.edge_subgraph_dedup(slt.edges.iter().copied());
        assert_eq!(tree.m(), g.n() - 1, "family {}", family.name());
        let stretch = metrics::root_stretch(&g, &tree, rt);
        let light = metrics::lightness(&g, &tree);
        assert!(
            stretch <= 1.0 + 60.0 * eps,
            "family {} stretch {stretch}",
            family.name()
        );
        assert!(
            light <= 1.0 + 8.0 / eps + 0.1,
            "family {} lightness {light}",
            family.name()
        );
    }
}

#[test]
fn light_spanner_vs_baselines() {
    let g = generators::erdos_renyi(56, 0.18, 60, 5);
    let (k, eps) = (2, 0.25);
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let ours = light_spanner(&mut sim, &tau, 0, k, eps, 5);
    let h = g.edge_subgraph_dedup(ours.edges.iter().copied());
    let q = metrics::spanner_quality(&g, &h);

    // greedy baseline: existentially optimal quality
    let greedy = g.edge_subgraph(greedy_2k_minus_1(&g, k));
    let gq = metrics::spanner_quality(&g, &greedy);

    // Baswana–Sen baseline: sparse but with NO lightness guarantee
    let mut sim2 = Simulator::new(&g);
    let bs = baswana_sen(&mut sim2, k, 5);
    let bsh = g.edge_subgraph_dedup(bs.edges.iter().copied());
    let bsq = metrics::spanner_quality(&g, &bsh);

    // all three respect their stretch bounds
    assert!(q.stretch <= (2 * k - 1) as f64 * (1.0 + 5.0 * eps));
    assert!(gq.stretch <= (2 * k - 1) as f64 + 1e-9);
    assert!(bsq.stretch <= (2 * k - 1) as f64 + 1e-9);
    // ours is within a constant factor of greedy's lightness (greedy is
    // the existential optimum; Theorem 2 promises O(k n^{1/k}))
    assert!(
        q.lightness <= 30.0 * gq.lightness.max(1.0),
        "our lightness {} vs greedy {}",
        q.lightness,
        gq.lightness
    );
}

#[test]
fn nets_compose_into_mst_estimate() {
    let g = generators::random_geometric(40, 0.3, 9);
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    // a single net obeys its radii
    let r = net(&mut sim, &tau, 200_000, 0.5, 9);
    let (cover, sep) = net_quality(&g, &r.points);
    assert!(cover <= 300_001);
    if r.points.len() > 1 {
        assert!(sep as f64 >= 200_000.0 / 1.5 - 1.0);
    }
    // the §8 estimator sandwiches the MST weight
    let l = mst::kruskal(&g).weight;
    let est = estimate_mst_weight(&mut sim, &tau, 9);
    assert!(est.psi >= l);
    assert!((est.psi as f64) <= est.alpha * 16.0 * (g.n() as f64).log2() * l as f64 + 16.0);
}

#[test]
fn doubling_spanner_preserves_all_distances() {
    let g = generators::random_geometric(36, 0.35, 13);
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let eps = 0.25;
    let ds = doubling_spanner(&mut sim, &tau, eps, 13);
    let h = g.edge_subgraph_dedup(ds.edges.iter().copied());
    // exhaustive pairwise check (not just edges)
    let ag = dijkstra::all_pairs(&g);
    let ah = dijkstra::all_pairs(&h);
    for u in 0..g.n() {
        for v in 0..g.n() {
            if u != v {
                assert!(
                    ah[u][v] as f64 <= (1.0 + 30.0 * eps) * ag[u][v] as f64 + 1e-9,
                    "pair ({u},{v}): {} vs {}",
                    ah[u][v],
                    ag[u][v]
                );
            }
        }
    }
}

#[test]
fn distributed_slt_tracks_kry_frontier() {
    let g = generators::caterpillar(20, 3, 3);
    let rt = 0;
    for &eps in &[0.5, 1.0] {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, rt);
        let ours = shallow_light_tree(&mut sim, &tau, rt, eps, 3);
        let our_tree = g.edge_subgraph_dedup(ours.edges.iter().copied());
        let kry_tree = g.edge_subgraph_dedup(kry_slt(&g, rt, eps));
        let (ol, kl) = (
            metrics::lightness(&g, &our_tree),
            metrics::lightness(&g, &kry_tree),
        );
        // the two-phase selection loses only a constant factor (§1.4)
        assert!(ol <= 3.0 * kl + 1.0, "ours {ol} vs KRY {kl} at eps={eps}");
    }
}

#[test]
fn round_counts_are_reported_and_positive() {
    let g = generators::erdos_renyi(48, 0.12, 40, 21);
    let mut sim = Simulator::new(&g);
    let (tau, stats) = build_bfs_tree(&mut sim, 0);
    assert!(stats.rounds > 0);
    let slt = shallow_light_tree(&mut sim, &tau, 0, 0.5, 21);
    assert!(slt.stats.rounds > 0);
    assert!(slt.stats.messages > 0);
    // cumulative accounting includes every phase
    assert!(sim.total().rounds >= slt.stats.rounds);
}
