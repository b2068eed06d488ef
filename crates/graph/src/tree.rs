//! Rooted spanning trees and the *sequential* Euler tour of Section 3.
//!
//! The distributed Euler tour in `dist-mst` must reproduce exactly the
//! sequence and visit times computed here.

use crate::{EdgeId, Graph, NodeId, Weight};

/// A spanning tree of a [`Graph`], rooted at [`RootedTree::root`].
#[derive(Debug, Clone)]
pub struct RootedTree {
    root: NodeId,
    /// `parent[v] = (parent vertex, weight, edge id)`; `None` for the root.
    parent: Vec<Option<(NodeId, Weight, EdgeId)>>,
    /// Children of each vertex, sorted by vertex id (the paper fixes the
    /// traversal order "using their id").
    children: Vec<Vec<NodeId>>,
    /// Vertices in BFS order from the root.
    order: Vec<NodeId>,
    depth_hops: Vec<usize>,
    dist_to_root: Vec<Weight>,
}

impl RootedTree {
    /// Builds a rooted tree from `n - 1` tree edges of `g`.
    ///
    /// # Panics
    /// Panics if the edges do not form a spanning tree of `g` containing
    /// the root.
    pub fn from_edge_ids(g: &Graph, edge_ids: &[EdgeId], root: NodeId) -> Self {
        let n = g.n();
        let mut adj: Vec<Vec<(NodeId, Weight, EdgeId)>> = vec![Vec::new(); n];
        for &id in edge_ids {
            let e = g.edge(id);
            adj[e.u].push((e.v, e.w, id));
            adj[e.v].push((e.u, e.w, id));
        }
        let mut parent = vec![None; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut depth_hops = vec![0usize; n];
        let mut dist_to_root = vec![0 as Weight; n];
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[root] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &(v, w, id) in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = Some((u, w, id));
                    children[u].push(v);
                    depth_hops[v] = depth_hops[u] + 1;
                    dist_to_root[v] = dist_to_root[u] + w;
                    queue.push_back(v);
                }
            }
        }
        assert_eq!(order.len(), n, "edges do not span the graph from the root");
        for c in &mut children {
            c.sort_unstable();
        }
        RootedTree {
            root,
            parent,
            children,
            order,
            depth_hops,
            dist_to_root,
        }
    }

    /// The root vertex.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// `(parent, edge weight, edge id)` of `v`, or `None` for the root.
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, Weight, EdgeId)> {
        self.parent[v]
    }

    /// Children of `v`, sorted by id.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v]
    }

    /// Vertices in BFS order from the root (useful for bottom-up passes:
    /// iterate in reverse).
    pub fn bfs_order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of tree edges on the root–`v` path.
    pub fn depth_hops(&self, v: NodeId) -> usize {
        self.depth_hops[v]
    }

    /// Weighted distance from the root to `v` *in the tree*.
    pub fn dist_to_root(&self, v: NodeId) -> Weight {
        self.dist_to_root[v]
    }

    /// Total weight of the tree.
    pub fn weight(&self) -> Weight {
        self.parent.iter().flatten().map(|&(_, w, _)| w).sum()
    }

    /// Edge ids of the tree, in no particular order.
    pub fn edge_ids(&self) -> Vec<EdgeId> {
        self.parent.iter().flatten().map(|&(_, _, id)| id).collect()
    }

    /// Weighted tree distance between `u` and `v` (via their lowest common
    /// ancestor; O(depth) per query).
    pub fn distance(&self, u: NodeId, v: NodeId) -> Weight {
        let (mut a, mut b) = (u, v);
        let (mut da, mut db) = (0 as Weight, 0 as Weight);
        while self.depth_hops[a] > self.depth_hops[b] {
            let (p, w, _) = self.parent[a].expect("non-root has parent");
            da += w;
            a = p;
        }
        while self.depth_hops[b] > self.depth_hops[a] {
            let (p, w, _) = self.parent[b].expect("non-root has parent");
            db += w;
            b = p;
        }
        while a != b {
            let (pa, wa, _) = self.parent[a].expect("non-root has parent");
            let (pb, wb, _) = self.parent[b].expect("non-root has parent");
            da += wa;
            db += wb;
            a = pa;
            b = pb;
        }
        da + db
    }

    /// The path from the root to `v` as a list of vertices
    /// `[root, ..., v]`.
    pub fn root_path(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some((p, _, _)) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Computes the Euler tour (preorder traversal with returns) of the
    /// tree, exactly as defined in Section 3 of the paper.
    pub fn euler_tour(&self) -> EulerTour {
        let n = self.n();
        let mut seq = Vec::with_capacity(2 * n - 1);
        let mut times = Vec::with_capacity(2 * n - 1);
        let mut appearances: Vec<Vec<usize>> = vec![Vec::new(); n];
        // Explicit stack to avoid recursion depth limits on path graphs.
        // Frame = (vertex, next child index).
        let mut time: Weight = 0;
        let mut stack: Vec<(NodeId, usize)> = vec![(self.root, 0)];
        appearances[self.root].push(seq.len());
        seq.push(self.root);
        times.push(0);
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            if *ci < self.children[v].len() {
                let c = self.children[v][*ci];
                *ci += 1;
                let (_, w, _) = self.parent[c].expect("child has parent");
                time += w;
                appearances[c].push(seq.len());
                seq.push(c);
                times.push(time);
                stack.push((c, 0));
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    let (_, w, _) = self.parent[v].expect("non-root has parent");
                    time += w;
                    appearances[p].push(seq.len());
                    seq.push(p);
                    times.push(time);
                }
            }
        }
        EulerTour {
            seq,
            times,
            appearances,
        }
    }
}

/// An Euler tour `L = {x_0, ..., x_{2n-2}}` of a rooted tree, with the
/// weighted visit times `R_x` of Section 3.
#[derive(Debug, Clone)]
pub struct EulerTour {
    /// `seq[i]` is the vertex visited at position `i`; `seq.len() == 2n-1`.
    pub seq: Vec<NodeId>,
    /// `times[i] = R_{x_i}`, the weighted distance travelled along the
    /// tour up to position `i`. `times[2n-2] == 2 * w(T)`.
    pub times: Vec<Weight>,
    /// For each vertex `v`, the positions `i` with `seq[i] == v`
    /// (the set `L(v)` of the paper), in increasing order.
    pub appearances: Vec<Vec<usize>>,
}

impl EulerTour {
    /// Number of tour positions (`2n - 1`).
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the tour is empty (only for the empty tree).
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Total weighted length of the tour (`2 * w(T)`).
    pub fn total_length(&self) -> Weight {
        *self.times.last().unwrap_or(&0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst;

    /// The example tree from the figure in Section 3 of the paper:
    /// root a with children b (w=2) and c..; we encode
    /// a=0, b=1, c=2, d=3, e=4, f=5, g=6 with
    /// edges a-b(2), a-c? ... The figure gives weights 2,2,4,3,3,1 and
    /// visit times 0,2,4,6,7,8,10,13,17,21,24,27,30.
    /// We reconstruct a consistent tree: a-b(2); b-c(2)? Instead of
    /// guessing the garbled figure we verify tour *invariants* on several
    /// hand-built trees, and check the exact sequence on a small one.
    fn small_tree() -> (Graph, RootedTree) {
        // root 0; children 1 (w=2), 2 (w=3); 1 has child 3 (w=1).
        let g = Graph::from_edges(4, [(0, 1, 2), (1, 3, 1), (0, 2, 3)]).unwrap();
        let m = mst::kruskal(&g);
        let t = RootedTree::from_edge_ids(&g, &m.edges, 0);
        (g, t)
    }

    #[test]
    fn exact_tour_of_small_tree() {
        let (_, t) = small_tree();
        let tour = t.euler_tour();
        // preorder with returns, children by id:
        // 0 (t=0) -> 1 (2) -> 3 (3) -> back 1 (4) -> back 0 (6) -> 2 (9) -> back 0 (12)
        assert_eq!(tour.seq, vec![0, 1, 3, 1, 0, 2, 0]);
        assert_eq!(tour.times, vec![0, 2, 3, 4, 6, 9, 12]);
        assert_eq!(tour.total_length(), 2 * t.weight());
    }

    #[test]
    fn tour_has_2n_minus_1_entries_and_degree_appearances() {
        let (g, t) = small_tree();
        let tour = t.euler_tour();
        assert_eq!(tour.len(), 2 * g.n() - 1);
        // appearances: root deg+1, others deg (in the tree)
        let tree_graph = g.edge_subgraph(t.edge_ids());
        for v in 0..g.n() {
            let expect = if v == t.root() {
                tree_graph.degree(v) + 1
            } else {
                tree_graph.degree(v)
            };
            assert_eq!(tour.appearances[v].len(), expect, "vertex {v}");
        }
    }

    #[test]
    fn consecutive_tour_entries_are_tree_neighbors() {
        let g = crate::generators::erdos_renyi(40, 0.15, 50, 11);
        let m = mst::kruskal(&g);
        let t = RootedTree::from_edge_ids(&g, &m.edges, 0);
        let tour = t.euler_tour();
        for i in 1..tour.len() {
            let (a, b) = (tour.seq[i - 1], tour.seq[i]);
            let step = tour.times[i] - tour.times[i - 1];
            // a and b must be parent/child with edge weight == step
            let ok = t
                .parent(a)
                .map(|(p, w, _)| p == b && w == step)
                .unwrap_or(false)
                || t.parent(b)
                    .map(|(p, w, _)| p == a && w == step)
                    .unwrap_or(false);
            assert!(ok, "positions {} and {} not tree-adjacent", i - 1, i);
        }
    }

    #[test]
    fn tree_distance_matches_dijkstra_on_tree() {
        let g = crate::generators::erdos_renyi(30, 0.2, 30, 5);
        let m = mst::kruskal(&g);
        let t = RootedTree::from_edge_ids(&g, &m.edges, 3);
        let tg = g.edge_subgraph(t.edge_ids());
        let ap = crate::dijkstra::all_pairs(&tg);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(t.distance(u, v), ap[u][v], "pair ({u},{v})");
            }
        }
    }

    #[test]
    fn root_path_starts_at_root_ends_at_v() {
        let (_, t) = small_tree();
        assert_eq!(t.root_path(3), vec![0, 1, 3]);
        assert_eq!(t.root_path(0), vec![0]);
    }

    #[test]
    fn dist_to_root_matches_distance() {
        let (_, t) = small_tree();
        for v in 0..t.n() {
            assert_eq!(t.dist_to_root(v), t.distance(t.root(), v));
        }
    }

    #[test]
    fn tour_of_single_vertex() {
        let g = Graph::new(1);
        let t = RootedTree::from_edge_ids(&g, &[], 0);
        let tour = t.euler_tour();
        assert_eq!(tour.seq, vec![0]);
        assert_eq!(tour.total_length(), 0);
    }

    #[test]
    fn tour_of_path_graph_walks_out_and_back() {
        let g = Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        let t = RootedTree::from_edge_ids(&g, &[0, 1, 2], 0);
        let tour = t.euler_tour();
        assert_eq!(tour.seq, vec![0, 1, 2, 3, 2, 1, 0]);
        assert_eq!(tour.times, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
