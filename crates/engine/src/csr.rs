//! CSR indexing of the directed-edge space.
//!
//! The engine addresses every *directed* edge with a dense id
//! `2 * edge_id + dir` (`dir` 0 = `u → v`, 1 = `v → u`), the same
//! numbering the sequential simulator uses for its queue array. One
//! compressed view is precomputed per graph: for each node, its
//! `(neighbor, directed id)` out pairs sorted by neighbor, keeping the
//! smallest edge id per neighbor. This mirrors `Simulator`'s `edge_of`
//! map (`entry(..).or_insert(..)` keeps the first edge), so sends on
//! graphs with parallel edges route identically on both engines.
//!
//! Delivery needs no incoming view: the engine walks only the charged
//! incoming edges of a round, sorted by `(receiver, directed id)`, and
//! ascending directed id *is* the sequential delivery order (edge id
//! ascending, direction `u→v` before `v→u`).

use lightgraph::{Graph, NodeId};

/// Dense id of a directed edge: `2 * edge_id + dir`.
pub type DirectedId = usize;

/// Precomputed directed-edge indexing for one graph.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Flattened per-node `(neighbor, directed out id)` pairs, sorted by
    /// neighbor id within each node.
    out_pairs: Vec<(NodeId, DirectedId)>,
    /// Node offsets into `out_pairs` (`n + 1` entries): the degree
    /// prefix sums, one out directed edge per incident edge.
    offsets: Vec<usize>,
}

impl Csr {
    /// Builds the indexing in one pass over the adjacency lists, `O(n +
    /// m)` plus a sort of every list not already ordered by neighbor.
    ///
    /// A node's adjacency list holds its incident edges in ascending
    /// edge id, so walking it yields its out pairs in ascending directed
    /// id, ordered by neighbor up to the per-node sort. Direction comes
    /// from the endpoints: `2 * id` leaves `e.u`, `2 * id + 1` leaves
    /// `e.v`.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.n();
        let edges = graph.edges();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut out_pairs = Vec::with_capacity(2 * graph.m());
        for v in 0..n {
            let start = out_pairs.len();
            for &(nbr, _, id) in graph.neighbors(v) {
                let from_u = usize::from(edges[id].u == v);
                out_pairs.push((nbr, 2 * id + 1 - from_u));
            }
            // Sort by (neighbor, directed id): with parallel edges the
            // smallest edge id per neighbor comes first, which is the
            // one binary search will find and use — matching the
            // simulator's first-edge routing.
            let pairs = &mut out_pairs[start..];
            if !pairs.is_sorted() {
                pairs.sort_unstable();
            }
            offsets.push(out_pairs.len());
        }
        Csr { out_pairs, offsets }
    }

    /// Total number of directed edges (`2m`).
    pub fn directed_len(&self) -> usize {
        self.out_pairs.len()
    }

    /// `(neighbor, directed id)` pairs for sends from `v`, sorted by
    /// neighbor.
    pub fn out(&self, v: NodeId) -> &[(NodeId, DirectedId)] {
        &self.out_pairs[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The directed id used for sends `from → to` (the smallest-id edge
    /// between them, like the simulator).
    ///
    /// # Panics
    /// Panics if no edge connects `from` and `to`.
    pub fn out_id(&self, from: NodeId, to: NodeId) -> DirectedId {
        let pairs = self.out(from);
        let i = pairs.partition_point(|&(nbr, _)| nbr < to);
        match pairs.get(i) {
            Some(&(nbr, d)) if nbr == to => d,
            _ => panic!("no edge between {from} and {to}"),
        }
    }

    /// The sender of a directed edge, given the graph.
    pub fn sender(graph: &Graph, d: DirectedId) -> NodeId {
        let e = graph.edge(d / 2);
        if d.is_multiple_of(2) {
            e.u
        } else {
            e.v
        }
    }

    /// The receiver of a directed edge, given the graph. The engine's
    /// touched-edge queue tracking routes a freshly charged edge to the
    /// worker shard owning this node.
    pub fn receiver(graph: &Graph, d: DirectedId) -> NodeId {
        let e = graph.edge(d / 2);
        if d.is_multiple_of(2) {
            e.v
        } else {
            e.u
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_and_in_views_agree_with_the_graph() {
        // Edge 4 is inserted with its endpoints reversed (`u > v`): the
        // build must read each edge's direction off its endpoints, not
        // off the neighbor order.
        let g =
            Graph::from_edges(4, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 1), (3, 1, 2)]).unwrap();
        let csr = Csr::new(&g);
        assert_eq!(csr.directed_len(), 10);
        // node 0 sends to 1 via directed 0 (edge0 u-side), to 2 via 4
        assert_eq!(csr.out_id(0, 1), 0);
        assert_eq!(csr.out_id(0, 2), 4);
        // node 2 sends to 0 via directed 5 (edge2 v-side)
        assert_eq!(csr.out_id(2, 0), 5);
        // the reversed edge: 3 is its u-side, 1 its v-side
        assert_eq!(csr.out(1), &[(0, 1), (2, 2), (3, 9)]);
        assert_eq!(csr.out_id(3, 1), 8);
        for d in 0..10 {
            let s = Csr::sender(&g, d);
            let r = Csr::receiver(&g, d);
            let e = g.edge(d / 2);
            assert_eq!(s, if d % 2 == 0 { e.u } else { e.v });
            assert_eq!(r, if d % 2 == 0 { e.v } else { e.u });
        }
        // Every view is consistent with the sender/receiver maps.
        for v in 0..g.n() {
            assert_eq!(csr.out(v).len(), g.degree(v));
            for &(to, d) in csr.out(v) {
                assert_eq!((Csr::sender(&g, d), Csr::receiver(&g, d)), (v, to));
            }
        }
    }

    #[test]
    fn parallel_edges_route_via_smallest_edge_id() {
        let mut g = Graph::new(2);
        let e0 = g.add_edge(0, 1, 5).unwrap();
        let _e1 = g.add_edge(0, 1, 1).unwrap();
        let csr = Csr::new(&g);
        assert_eq!(csr.out_id(0, 1), 2 * e0);
        assert_eq!(csr.out_id(1, 0), 2 * e0 + 1);
    }

    #[test]
    #[should_panic(expected = "no edge between")]
    fn missing_edge_panics() {
        let g = Graph::from_edges(3, [(0, 1, 1)]).unwrap();
        Csr::new(&g).out_id(0, 2);
    }
}
