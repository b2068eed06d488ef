//! Pins the benchmark's generated instances edge for edge.
//!
//! The geometric equivalence proptests stop at 500 points, so they
//! would not notice a generator rewrite that changes a large instance
//! only through, say, a cell-boundary or stitching corner case. These
//! tests pin the two inputs of the repository benchmark below a million
//! nodes by edge count, total weight and an order-sensitive fold over
//! the edge list, `(u, v, w)` in insertion order. The million-node
//! geometric instance is pinned the same way in the `#[ignore]`d
//! `crates/engine/tests/large_smoke.rs`.

use lightgraph::{generators, Graph};

/// FNV-1a over the words `u, v, w` of every edge in id order: any
/// change to the edge set, the insertion order, the endpoint order or
/// a weight changes it.
fn edge_fold(g: &Graph) -> u64 {
    g.edges().iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        [e.u as u64, e.v as u64, e.w]
            .into_iter()
            .fold(h, |h, x| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3))
    })
}

fn pin(g: &Graph, m: usize, total_weight: u64, fold: u64) {
    assert_eq!(g.m(), m, "edge count");
    assert_eq!(g.total_weight(), total_weight, "total weight");
    assert_eq!(edge_fold(g), fold, "edge fold {:#018x}", edge_fold(g));
}

#[test]
fn geometric_64k_instance_is_pinned() {
    let n = 64_000;
    let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let g = generators::random_geometric(n, radius, 1);
    pin(&g, 254_768, 1_070_133_641, 0x974b_453b_3efe_4836);
}

#[test]
fn gnp_2k_instance_is_pinned() {
    let g = generators::gnp_sparse(2_000, 0.2, 100, 1);
    pin(&g, 401_300, 20_253_354, 0xea69_c895_6f08_4083);
}
