//! Distributed BFS-tree construction — the auxiliary tree τ of §2.
//!
//! "A Breadth First Search (BFS) tree τ of G of hop-diameter D (ignoring
//! the weights) can be computed in O(D) rounds. Since all our algorithms
//! have a larger running time, we always assume that we have such a tree
//! at our disposal." We build it once per composite algorithm and charge
//! its O(D) rounds.

use crate::exec::Executor;
use crate::message::Message;
use crate::program::{Ctx, Program, RunStats};
use lightgraph::NodeId;

/// A rooted BFS tree over the simulated network.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// The root vertex.
    pub root: NodeId,
    /// `parent[v]`, `None` for the root (and for unreachable vertices,
    /// which do not occur on connected inputs).
    pub parent: Vec<Option<NodeId>>,
    /// Children lists, sorted by id.
    pub children: Vec<Vec<NodeId>>,
    /// Hop depth of each vertex.
    pub depth: Vec<u64>,
}

impl BfsTree {
    /// Height of the tree (max depth) — the pipelining latency term.
    pub fn height(&self) -> u64 {
        self.depth.iter().copied().max().unwrap_or(0)
    }
}

const TAG_JOIN: u64 = 1;
const TAG_CHILD: u64 = 2;

struct BfsProgram {
    root: NodeId,
    parent: Option<NodeId>,
    depth: u64,
    joined: bool,
    children: Vec<NodeId>,
}

impl Program for BfsProgram {
    type Output = (Option<NodeId>, u64, Vec<NodeId>);

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.node() == self.root {
            self.joined = true;
            self.depth = 0;
            ctx.send_all(Message::words(&[TAG_JOIN, 0]));
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        let mut best: Option<(u64, NodeId)> = None;
        for (from, msg) in inbox {
            match msg.word(0) {
                TAG_JOIN => {
                    let d = msg.word(1);
                    if best.map(|(bd, bf)| (d, *from) < (bd, bf)).unwrap_or(true) {
                        best = Some((d, *from));
                    }
                }
                TAG_CHILD => self.children.push(*from),
                other => unreachable!("unexpected tag {other}"),
            }
        }
        if !self.joined {
            if let Some((d, from)) = best {
                self.joined = true;
                self.parent = Some(from);
                self.depth = d + 1;
                ctx.send(from, Message::words(&[TAG_CHILD]));
                ctx.send_all(Message::words(&[TAG_JOIN, self.depth]));
            }
        }
    }

    fn finish(mut self) -> Self::Output {
        self.children.sort_unstable();
        (self.parent, self.depth, self.children)
    }
}

/// Builds a BFS tree rooted at `root` by distributed flooding.
///
/// Takes `O(D)` rounds (plus one round for child notifications). The
/// returned statistics are also accumulated into the simulator's total.
///
/// # Panics
/// Panics if the network is disconnected (some vertex never joins).
pub fn build_bfs_tree<'g, E: Executor<'g>>(sim: &mut E, root: NodeId) -> (BfsTree, RunStats) {
    let (out, stats) = sim.run(|_, _| BfsProgram {
        root,
        parent: None,
        depth: 0,
        joined: false,
        children: Vec::new(),
    });
    let n = out.len();
    let mut tree = BfsTree {
        root,
        parent: vec![None; n],
        children: vec![Vec::new(); n],
        depth: vec![0; n],
    };
    for (v, (parent, depth, children)) in out.into_iter().enumerate() {
        assert!(
            v == root || parent.is_some(),
            "vertex {v} unreachable from root {root}: network must be connected"
        );
        tree.parent[v] = parent;
        tree.depth[v] = depth;
        tree.children[v] = children;
    }
    (tree, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use lightgraph::generators;

    #[test]
    fn bfs_tree_depths_match_hop_distances() {
        let g = generators::erdos_renyi(48, 0.1, 9, 2);
        let mut sim = Simulator::new(&g);
        let (tree, stats) = build_bfs_tree(&mut sim, 0);
        // sequential BFS oracle
        let mut dist = vec![u64::MAX; g.n()];
        dist[0] = 0;
        let mut q = std::collections::VecDeque::from([0usize]);
        while let Some(u) = q.pop_front() {
            for &(v, _, _) in g.neighbors(u) {
                if dist[v] == u64::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        assert_eq!(tree.depth, dist);
        assert!(stats.rounds <= g.hop_diameter() as u64 + 2);
        // parent depth is one less
        for v in 0..g.n() {
            if let Some(p) = tree.parent[v] {
                assert_eq!(tree.depth[p] + 1, tree.depth[v]);
                assert!(tree.children[p].contains(&v));
            } else {
                assert_eq!(v, tree.root);
            }
        }
    }

    #[test]
    fn children_lists_partition_non_roots() {
        let g = generators::grid(5, 6, 4, 3);
        let mut sim = Simulator::new(&g);
        let (tree, _) = build_bfs_tree(&mut sim, 7);
        let mut seen = vec![false; g.n()];
        for v in 0..g.n() {
            for &c in &tree.children[v] {
                assert!(!seen[c], "child {c} claimed twice");
                seen[c] = true;
                assert_eq!(tree.parent[c], Some(v));
            }
        }
        assert_eq!(seen.iter().filter(|&&b| b).count(), g.n() - 1);
    }

    #[test]
    fn path_graph_tree_height_is_length() {
        let g = generators::path(20, 5);
        let mut sim = Simulator::new(&g);
        let (tree, stats) = build_bfs_tree(&mut sim, 0);
        assert_eq!(tree.height(), 19);
        assert!(stats.rounds >= 19);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn disconnected_network_panics() {
        let g = lightgraph::Graph::from_edges(3, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        let _ = build_bfs_tree(&mut sim, 0);
    }
}
