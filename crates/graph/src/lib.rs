//! Weighted-graph substrate for the light-networks reproduction.
//!
//! This crate contains everything the distributed algorithms of
//! *Distributed Construction of Light Networks* (Elkin, Filtser, Neiman;
//! PODC 2020) need from a classical (sequential) graph library:
//!
//! * [`Graph`] — an undirected weighted graph with integer weights,
//! * [`generators`] — seeded random instance generators (Erdős–Rényi,
//!   random geometric, grids, trees with chords, …),
//! * [`dijkstra`] — exact shortest paths used as the correctness oracle,
//! * [`mst`] — Kruskal's minimum spanning tree (the sequential reference
//!   the distributed MST of `dist-mst` is checked against),
//! * [`tree`] — rooted-tree utilities including the *sequential* Euler
//!   tour that Section 3 of the paper distributes,
//! * [`metrics`] — stretch and lightness measurements for spanners and
//!   shallow-light trees,
//! * [`doubling`] — doubling-dimension estimation (Section 7).
//!
//! # Example
//!
//! ```
//! use lightgraph::{generators, dijkstra, mst};
//!
//! let g = generators::erdos_renyi(64, 0.1, 100, 7);
//! let dist = dijkstra::shortest_paths(&g, 0).dist;
//! let tree = mst::kruskal(&g);
//! assert!(tree.weight <= g.total_weight());
//! assert!(dist.iter().all(|&d| d < lightgraph::INF));
//! ```

pub mod dijkstra;
pub mod doubling;
pub mod generators;
pub mod metrics;
pub mod mst;
pub mod tree;
pub mod union_find;

mod graph;

pub use graph::{Edge, EdgeId, Graph, GraphError, NodeId, Weight, INF};

/// The Weyl increment of the splitmix64 generator: its state advances
/// by this constant per draw.
pub const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 (Steele, Lea and Flood): mixes `x + SPLITMIX_GAMMA` into
/// a well-spread 64-bit value. It is the workspace's one seeded hash:
/// the algorithms derive their coin flips from it and a seed, so every
/// run replays exactly. The generator stream from state `s` is
/// `splitmix64(s)`, `splitmix64(s + SPLITMIX_GAMMA)`, and so on.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first two outputs of the reference generator from state 0.
        assert_eq!(super::splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(
            super::splitmix64(super::SPLITMIX_GAMMA),
            0x6E78_9E6A_A1B9_65F4
        );
    }
}
