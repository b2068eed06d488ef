//! The process-wide wall accumulators and the topology fingerprint,
//! re-exported from [`crate::obs`] under the path the benchmark
//! imports them by.

pub use crate::obs::{phase_wall_ns, setup_wall_ns, topo_key, TopoKey};

#[cfg(test)]
mod tests {
    use super::*;
    use lightgraph::{generators, Graph};

    #[test]
    fn same_topology_hits_regardless_of_weights() {
        let g1 = Graph::from_edges(3, [(0, 1, 5), (1, 2, 7)]).unwrap();
        let g2 = Graph::from_edges(3, [(0, 1, 9), (1, 2, 1)]).unwrap();
        assert_eq!(topo_key(&g1), topo_key(&g2));
    }

    #[test]
    fn distinct_topologies_get_distinct_keys() {
        let mut keys = std::collections::HashSet::new();
        for seed in 0..32u64 {
            let g = generators::erdos_renyi(24, 0.2, 3, seed);
            assert!(keys.insert(topo_key(&g)), "key collision at seed {seed}");
        }
        // Reordered endpoints are a different topology fingerprint.
        let a = Graph::from_edges(3, [(0, 1, 1), (1, 2, 1)]).unwrap();
        let b = Graph::from_edges(3, [(1, 2, 1), (0, 1, 1)]).unwrap();
        assert_ne!(topo_key(&a), topo_key(&b));
    }
}
