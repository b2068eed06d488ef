//! Light spanners on doubling (geometric) graphs — §7, with the TSP
//! motivation of §1.3: a `(1+ε)`-spanner of constant lightness is the
//! standard substrate for approximation schemes on doubling metrics.
//!
//! Sweeps ε on a random geometric graph (doubling dimension ≈ 2) and
//! prints stretch / lightness / size next to the estimated doubling
//! dimension of the instance.
//!
//! ```text
//! cargo run --example doubling_spanner
//! ```

use congest::tree::build_bfs_tree;
use congest::Simulator;
use lightgraph::{doubling as ddim, generators, metrics};
use lightnet::doubling_spanner;

fn main() {
    let g = generators::random_geometric(128, 0.18, 3);
    let d = ddim::estimate_doubling_dimension(&g, 12, 5);
    println!(
        "geometric graph: n = {}, m = {}, estimated ddim ≈ {:.1}",
        g.n(),
        g.m(),
        d
    );
    println!(
        "{:<8} {:>9} {:>10} {:>8} {:>9} {:>9}",
        "eps", "stretch", "lightness", "edges", "scales", "rounds"
    );
    for &eps in &[1.0, 0.5, 0.25] {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let r = doubling_spanner(&mut sim, &tau, eps, 17);
        let h = g.edge_subgraph_dedup(r.edges.iter().copied());
        let q = metrics::spanner_quality(&g, &h);
        println!(
            "{:<8} {:>9.3} {:>10.2} {:>8} {:>9} {:>9}",
            eps, q.stretch, q.lightness, q.edges, r.scales, r.stats.rounds
        );
    }
    println!("\n(lightness should grow as ε shrinks but stay independent of n — Theorem 5)");
}
