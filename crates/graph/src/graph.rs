//! The core undirected weighted graph type.

use std::fmt;

/// Index of a vertex; vertices are always `0..n`.
pub type NodeId = usize;
/// Index of an edge in [`Graph::edges`].
pub type EdgeId = usize;
/// Integer edge weight. The paper (§2) assumes the minimum weight is 1 and
/// the maximum is poly(n); integer weights keep every computation exact.
pub type Weight = u64;

/// "Infinite" distance sentinel. Chosen far below `u64::MAX` so that
/// `INF + w` never wraps for any legal weight.
pub const INF: Weight = u64::MAX / 4;

/// An undirected weighted edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Weight, `>= 1`.
    pub w: Weight,
}

impl Edge {
    /// The endpoint opposite to `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "vertex {x} is not an endpoint");
            self.u
        }
    }
}

/// Errors produced when building a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a vertex `>= n`.
    VertexOutOfRange { vertex: NodeId, n: usize },
    /// Self loops are not allowed.
    SelfLoop { vertex: NodeId },
    /// Weights must be at least 1 (§2 of the paper).
    ZeroWeight { u: NodeId, v: NodeId },
    /// Weights on `n` vertices must be at most `max = INF / n`, so that
    /// no simple path (at most `n - 1` edges) reaches [`INF`].
    WeightTooLarge {
        u: NodeId,
        v: NodeId,
        w: Weight,
        max: Weight,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::SelfLoop { vertex } => write!(f, "self loop at vertex {vertex}"),
            GraphError::ZeroWeight { u, v } => {
                write!(f, "edge ({u}, {v}) has zero weight; weights must be >= 1")
            }
            GraphError::WeightTooLarge { u, v, w, max } => write!(
                f,
                "edge ({u}, {v}) has weight {w}; weights must be <= INF / n = {max}, \
                 so that no simple path reaches INF"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected weighted graph with vertices `0..n`.
///
/// Edges are stored once in an edge list; the adjacency structure keeps,
/// per vertex, `(neighbor, weight, edge id)` triples. Parallel edges are
/// permitted (the generators never produce them); where a computation
/// needs *the* edge between two vertices, [`Graph::edge_between`] picks
/// it.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    adj: Vec<Vec<(NodeId, Weight, EdgeId)>>,
}

impl Graph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from an edge list: the same graph as
    /// [`Graph::add_edge`] in list order, but each adjacency list is
    /// allocated once at its exact degree instead of grown edge by edge.
    ///
    /// # Errors
    /// Returns an error if any edge is a self loop, references a vertex
    /// `>= n`, has weight 0, or has a weight above `INF / n` (at which
    /// a simple path could reach [`INF`]).
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, Weight)>,
    ) -> Result<Self, GraphError> {
        let max_w = Graph::max_weight_on(n);
        let edges: Vec<Edge> = edges
            .into_iter()
            .map(|(u, v, w)| Graph::check_edge(n, max_w, u, v, w).map(|()| Edge { u, v, w }))
            .collect::<Result<_, _>>()?;
        let mut degree = vec![0usize; n];
        for e in &edges {
            degree[e.u] += 1;
            degree[e.v] += 1;
        }
        let mut adj: Vec<Vec<(NodeId, Weight, EdgeId)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        for (id, e) in edges.iter().enumerate() {
            adj[e.u].push((e.v, e.w, id));
            adj[e.v].push((e.u, e.w, id));
        }
        Ok(Graph { n, edges, adj })
    }

    /// The largest legal edge weight on `n` vertices, `INF / n`: a
    /// simple path has at most `n - 1` edges, so it stays below [`INF`].
    fn max_weight_on(n: usize) -> Weight {
        INF / n.max(1) as Weight
    }

    /// The validity rules every edge of a graph on `n` vertices obeys;
    /// `max_w` is `max_weight_on(n)`.
    fn check_edge(
        n: usize,
        max_w: Weight,
        u: NodeId,
        v: NodeId,
        w: Weight,
    ) -> Result<(), GraphError> {
        if u >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight { u, v });
        }
        if w > max_w {
            return Err(GraphError::WeightTooLarge {
                u,
                v,
                w,
                max: max_w,
            });
        }
        Ok(())
    }

    /// Adds an undirected edge and returns its [`EdgeId`].
    ///
    /// # Errors
    /// See [`Graph::from_edges`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> Result<EdgeId, GraphError> {
        Graph::check_edge(self.n, Graph::max_weight_on(self.n), u, v, w)?;
        let id = self.edges.len();
        self.edges.push(Edge { u, v, w });
        self.adj[u].push((v, w, id));
        self.adj[v].push((u, w, id));
        Ok(id)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    /// Panics if `id >= self.m()`.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id]
    }

    /// `(neighbor, weight, edge id)` triples incident on `u`.
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, Weight, EdgeId)] {
        &self.adj[u]
    }

    /// The edge between `v` and `u` as `(weight, edge id)`, `None` if
    /// they are not adjacent. Of parallel edges it is the lightest, ties
    /// to the smaller id: Kruskal's order, so the copy a minimum spanning
    /// tree or a shortest path uses. Every lookup of "the edge between
    /// two vertices" goes through this rule, so parallel edges cannot
    /// make two phases of one construction disagree.
    pub fn edge_between(&self, v: NodeId, u: NodeId) -> Option<(Weight, EdgeId)> {
        self.adj[v]
            .iter()
            .filter(|&&(x, _, _)| x == u)
            .map(|&(_, w, e)| (w, e))
            .min()
    }

    /// Degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u].len()
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Largest edge weight (0 for an edgeless graph).
    pub fn max_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.w).max().unwrap_or(0)
    }

    /// Smallest edge weight (0 for an edgeless graph).
    pub fn min_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.w).min().unwrap_or(0)
    }

    /// Whether the graph is connected (vacuously true for `n <= 1`).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let order = self.bfs_order(0);
        order.len() == self.n
    }

    /// Vertices in BFS order from `src` (unweighted), restricted to the
    /// connected component of `src`.
    pub fn bfs_order(&self, src: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.n];
        let mut queue = std::collections::VecDeque::new();
        let mut order = Vec::new();
        seen[src] = true;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &(v, _, _) in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        order
    }

    /// Unweighted (hop) eccentricity of `src`: the largest number of hops
    /// to any reachable vertex.
    pub fn hop_eccentricity(&self, src: NodeId) -> usize {
        let mut dist = vec![usize::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        let mut ecc = 0;
        while let Some(u) = queue.pop_front() {
            ecc = ecc.max(dist[u]);
            for &(v, _, _) in &self.adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        ecc
    }

    /// Exact hop diameter (the `D` of the paper): diameter of the graph
    /// ignoring weights. Runs a BFS from every vertex, so use it only on
    /// test-sized graphs; the simulator uses a 2-approximation internally.
    pub fn hop_diameter(&self) -> usize {
        (0..self.n)
            .map(|v| self.hop_eccentricity(v))
            .max()
            .unwrap_or(0)
    }

    /// 2-approximate hop diameter via a single BFS (eccentricity of vertex
    /// 0); always within a factor 2 of the true hop diameter on connected
    /// graphs.
    pub fn hop_diameter_approx(&self) -> usize {
        self.hop_eccentricity(0)
    }

    /// The subgraph on the same vertex set containing exactly the given
    /// edges (by id).
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn edge_subgraph(&self, edge_ids: impl IntoIterator<Item = EdgeId>) -> Graph {
        let mut g = Graph::new(self.n);
        for id in edge_ids {
            let e = self.edges[id];
            g.add_edge(e.u, e.v, e.w)
                .expect("edge copied from a valid graph");
        }
        g
    }

    /// Deduplicates a set of edge ids and builds the subgraph containing
    /// them. Convenience for spanner construction, where the same edge is
    /// often selected by several phases.
    pub fn edge_subgraph_dedup(&self, edge_ids: impl IntoIterator<Item = EdgeId>) -> Graph {
        let mut chosen = vec![false; self.edges.len()];
        for id in edge_ids {
            chosen[id] = true;
        }
        self.edge_subgraph((0..self.edges.len()).filter(|&i| chosen[i]))
    }

    /// Like [`Graph::edge_subgraph_dedup`], but also returns the map
    /// from the subgraph's edge ids back to this graph's ids, so results
    /// computed on the subgraph can be reported in original ids.
    pub fn edge_subgraph_with_map(
        &self,
        edge_ids: impl IntoIterator<Item = EdgeId>,
    ) -> (Graph, Vec<EdgeId>) {
        let mut chosen = vec![false; self.edges.len()];
        for id in edge_ids {
            chosen[id] = true;
        }
        let ids: Vec<EdgeId> = (0..self.edges.len()).filter(|&i| chosen[i]).collect();
        (self.edge_subgraph(ids.iter().copied()), ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1, 1), (1, 2, 2), (0, 2, 10)]).unwrap()
    }

    #[test]
    fn builds_and_reports_sizes() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.total_weight(), 13);
        assert_eq!(g.max_weight(), 10);
        assert_eq!(g.min_weight(), 1);
    }

    #[test]
    fn from_edges_matches_add_edge_with_exact_capacity() {
        // Parallel and reversed-endpoint edges included.
        let list = [(0, 1, 4), (2, 1, 1), (0, 1, 7), (3, 0, 2), (1, 3, 5)];
        let g = Graph::from_edges(4, list).unwrap();
        let mut h = Graph::new(4);
        for (u, v, w) in list {
            h.add_edge(u, v, w).unwrap();
        }
        assert_eq!(g.edges(), h.edges());
        for v in 0..4 {
            assert_eq!(g.neighbors(v), h.neighbors(v), "adjacency of {v}");
            assert_eq!(g.adj[v].capacity(), g.degree(v), "exact capacity at {v}");
        }
        assert_eq!(
            Graph::from_edges(3, [(0, 1, 1), (2, 2, 1), (0, 7, 1)]).unwrap_err(),
            GraphError::SelfLoop { vertex: 2 },
            "the first invalid edge is reported"
        );
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(g.add_edge(1, 1, 1), Err(GraphError::SelfLoop { vertex: 1 }));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(0, 5, 1),
            Err(GraphError::VertexOutOfRange { vertex: 5, n: 2 })
        );
    }

    #[test]
    fn rejects_zero_weight() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(0, 1, 0),
            Err(GraphError::ZeroWeight { u: 0, v: 1 })
        );
    }

    #[test]
    fn rejects_weights_at_which_a_path_reaches_inf() {
        // On 3 vertices the bound is INF / 3; the two-edge path at the
        // bound stays below INF.
        let max = INF / 3;
        assert!(2 * max < INF);
        let too_large = GraphError::WeightTooLarge {
            u: 0,
            v: 1,
            w: max + 1,
            max,
        };
        let mut g = Graph::new(3);
        assert_eq!(g.add_edge(0, 1, max), Ok(0));
        assert_eq!(g.add_edge(0, 1, max + 1), Err(too_large.clone()));
        assert_eq!(g.m(), 1, "a rejected edge is not added");
        assert!(Graph::from_edges(3, [(1, 2, 1), (0, 1, max)]).is_ok());
        assert_eq!(
            Graph::from_edges(3, [(1, 2, 1), (0, 1, max + 1)]).unwrap_err(),
            too_large
        );
        assert!(too_large.to_string().contains(&(max + 1).to_string()));
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = triangle();
        for e in g.edges() {
            assert!(g
                .neighbors(e.u)
                .iter()
                .any(|&(v, w, _)| v == e.v && w == e.w));
            assert!(g
                .neighbors(e.v)
                .iter()
                .any(|&(v, w, _)| v == e.u && w == e.w));
        }
    }

    #[test]
    fn edge_between_takes_the_lightest_parallel_edge() {
        // In both insertion orders, ties going to the smaller id.
        let g = Graph::from_edges(3, [(0, 1, 5), (1, 0, 1), (0, 1, 1), (1, 2, 4)]).unwrap();
        assert_eq!(g.edge_between(0, 1), Some((1, 1)));
        assert_eq!(g.edge_between(1, 0), Some((1, 1)));
        let g = Graph::from_edges(3, [(0, 1, 1), (0, 1, 5), (1, 2, 4)]).unwrap();
        assert_eq!(g.edge_between(1, 0), Some((1, 0)));
        assert_eq!(g.edge_between(2, 1), Some((4, 2)));
        assert_eq!(g.edge_between(0, 2), None);
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        let g = Graph::from_edges(4, [(0, 1, 1)]).unwrap();
        assert!(!g.is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(Graph::new(0).is_connected());
    }

    #[test]
    fn hop_diameter_of_path() {
        let g = Graph::from_edges(5, [(0, 1, 9), (1, 2, 9), (2, 3, 9), (3, 4, 9)]).unwrap();
        assert_eq!(g.hop_diameter(), 4);
        assert!(g.hop_diameter_approx() >= 2);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge { u: 3, v: 7, w: 1 };
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    #[test]
    #[should_panic]
    fn edge_other_panics_for_non_endpoint() {
        let e = Edge { u: 3, v: 7, w: 1 };
        let _ = e.other(5);
    }

    #[test]
    fn subgraph_selects_edges() {
        let g = triangle();
        let h = g.edge_subgraph([0, 2]);
        assert_eq!(h.m(), 2);
        assert_eq!(h.total_weight(), 11);
        let h2 = g.edge_subgraph_dedup([0, 0, 2, 2]);
        assert_eq!(h2.m(), 2);
    }
}
