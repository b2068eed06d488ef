//! Quickstart: build every object from Table 1 on one random graph and
//! print the measured quality next to the paper's guarantee.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use congest::tree::build_bfs_tree;
use congest::Simulator;
use lightgraph::{generators, metrics};
use lightnet::{doubling_spanner, light_spanner, net, net_quality, shallow_light_tree};

fn main() {
    let n = 128;
    let g = generators::erdos_renyi(n, 0.06, 60, 42);
    println!(
        "graph: n = {}, m = {}, hop diameter = {}",
        g.n(),
        g.m(),
        g.hop_diameter()
    );

    // --- light spanner (Table 1 row 1) -------------------------------
    let (k, eps) = (2, 0.25);
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let sp = light_spanner(&mut sim, &tau, 0, k, eps, 1);
    let h = g.edge_subgraph_dedup(sp.edges.iter().copied());
    let q = metrics::spanner_quality(&g, &h);
    println!(
        "\nlight spanner (k={k}, eps={eps}): stretch {:.2} (bound {}), \
         {} edges, lightness {:.2}, {} rounds",
        q.stretch,
        (2 * k - 1) as f64 * (1.0 + eps),
        q.edges,
        q.lightness,
        sp.stats.rounds
    );

    // --- shallow-light tree (Table 1 row 2) --------------------------
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let slt = shallow_light_tree(&mut sim, &tau, 0, 0.5, 2);
    let t = g.edge_subgraph_dedup(slt.edges.iter().copied());
    println!(
        "SLT (eps=0.5): root stretch {:.2}, lightness {:.2}, {} break points, {} rounds",
        metrics::root_stretch(&g, &t, 0),
        metrics::lightness(&g, &t),
        slt.breakpoints,
        slt.stats.rounds
    );

    // --- net (Table 1 row 3) -----------------------------------------
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let delta = 30;
    let r = net(&mut sim, &tau, delta, 0.5, 3);
    let (cover, sep) = net_quality(&g, &r.points);
    println!(
        "net (∆={delta}, δ=0.5): {} points, covering {cover} (≤ {}), \
         separation {sep} (> {}), {} iterations, {} rounds",
        r.points.len(),
        (delta as f64 * 1.5).ceil(),
        (delta as f64 / 1.5).floor(),
        r.iterations,
        r.stats.rounds
    );

    // --- doubling spanner (Table 1 row 4) ----------------------------
    let geo = generators::random_geometric(96, 0.2, 7);
    let mut sim = Simulator::new(&geo);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let ds = doubling_spanner(&mut sim, &tau, 0.5, 4);
    let hd = geo.edge_subgraph_dedup(ds.edges.iter().copied());
    let qd = metrics::spanner_quality(&geo, &hd);
    println!(
        "doubling spanner (geometric n={}, eps=0.5): stretch {:.3}, \
         lightness {:.2}, {} scales, {} rounds",
        geo.n(),
        qd.stretch,
        qd.lightness,
        ds.scales,
        ds.stats.rounds
    );
}
