//! Reusable fragment-tree passes.
//!
//! The fragment machinery of §3 repeatedly runs three communication
//! patterns *inside* base fragments (whose trees consist of real graph
//! edges, so messages travel on actual edges and cost real rounds):
//!
//! * [`up_pass`] — bottom-up aggregation: leaves start, every vertex
//!   combines its children's values with its own and forwards to its
//!   parent. `O(height)` rounds.
//! * [`down_pass`] — top-down distribution: fragment roots start, every
//!   vertex derives a per-child payload from the payload it received.
//!   `O(height)` rounds.
//! * [`reroot`] — re-roots every fragment tree at a designated vertex by
//!   flooding along tree edges; each vertex's new parent is the flood
//!   predecessor. `O(height)` rounds.
//!
//! All passes run in *all fragments in parallel*, exactly as the paper
//! prescribes ("locally in each fragment, i.e. in all the base fragments
//! in parallel").

use congest::{Ctx, Executor, Message, Program, RunStats, Word};
use lightgraph::NodeId;

/// A three-word payload travelling through a fragment pass.
pub type Val = [Word; 3];

const TAG_UP: u64 = 1;
const TAG_DOWN: u64 = 2;
const TAG_RESET: u64 = 3;

/// Per-vertex fragment-tree view used by the passes.
#[derive(Debug, Clone, Default)]
pub struct FragView {
    /// Parent within the fragment tree; `None` for the fragment root.
    pub parent: Option<NodeId>,
    /// All fragment-tree neighbors (parent and children).
    pub tree_neighbors: Vec<NodeId>,
}

impl FragView {
    /// Children = tree neighbors minus the parent.
    pub fn children(&self) -> Vec<NodeId> {
        self.tree_neighbors
            .iter()
            .copied()
            .filter(|&v| Some(v) != self.parent)
            .collect()
    }
}

// ---------------------------------------------------------------------
// Up pass
// ---------------------------------------------------------------------

struct UpProgram<C, T> {
    parent: Option<NodeId>,
    pending_children: usize,
    acc: Val,
    combine: C,
    outgoing: T,
    received: Vec<(NodeId, Val)>,
    sent: bool,
}

impl<C: Fn(Val, Val) -> Val, T: Fn(Val) -> Val> UpProgram<C, T> {
    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_children == 0 && !self.sent {
            self.sent = true;
            if let Some(p) = self.parent {
                let [a, b, c] = (self.outgoing)(self.acc);
                ctx.send(p, Message::words(&[TAG_UP, a, b, c]));
            }
        }
    }
}

impl<C: Fn(Val, Val) -> Val, T: Fn(Val) -> Val> Program for UpProgram<C, T> {
    type Output = (Val, Vec<(NodeId, Val)>);

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.try_send(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (from, msg) in inbox {
            debug_assert_eq!(msg.word(0), TAG_UP);
            let v = [msg.word(1), msg.word(2), msg.word(3)];
            self.received.push((*from, v));
            self.acc = (self.combine)(self.acc, v);
            self.pending_children -= 1;
        }
        self.try_send(ctx);
    }

    fn finish(self) -> Self::Output {
        (self.acc, self.received)
    }
}

/// Bottom-up aggregation over all fragment trees in parallel.
///
/// `own(v)` is the vertex's initial value; `combine` must be associative
/// and commutative. Returns each vertex's aggregate over its fragment
/// subtree (fragment roots hold the fragment-wide aggregate).
pub fn up_pass<'g, C>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    own: impl Fn(NodeId) -> Val,
    combine: C,
) -> (Vec<Val>, RunStats)
where
    C: Fn(Val, Val) -> Val + Clone + Send,
{
    let (out, stats) = up_pass_full(sim, views, own, combine, |_| identity_transform());
    (out.into_iter().map(|(acc, _)| acc).collect(), stats)
}

fn identity_transform() -> impl Fn(Val) -> Val {
    |v| v
}

/// Full-control bottom-up pass: like [`up_pass`] but the value a vertex
/// *sends* to its parent is `outgoing(v)(aggregate)` (e.g. "subtree tour
/// length plus twice the parent edge weight", §3.2), and the result
/// includes the individual values received from each child.
pub fn up_pass_full<'g, C, T>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    own: impl Fn(NodeId) -> Val,
    combine: C,
    mut outgoing: impl FnMut(NodeId) -> T,
) -> (Vec<(Val, Vec<(NodeId, Val)>)>, RunStats)
where
    C: Fn(Val, Val) -> Val + Clone + Send,
    T: Fn(Val) -> Val + Send,
{
    sim.run(|v, _| UpProgram {
        parent: views[v].parent,
        pending_children: views[v].children().len(),
        acc: own(v),
        combine: combine.clone(),
        outgoing: outgoing(v),
        received: Vec::new(),
        sent: false,
    })
}

// ---------------------------------------------------------------------
// Down pass
// ---------------------------------------------------------------------

type ChildPayloads = Vec<(NodeId, Val)>;

struct DownProgram<F> {
    is_root: bool,
    root_val: Val,
    derive: F,
    fired: bool,
    received: Vec<Val>,
}

impl<F: FnMut(NodeId, Val) -> ChildPayloads> DownProgram<F> {
    fn fire(&mut self, ctx: &mut Ctx<'_>, val: Val) {
        self.fired = true;
        let node = ctx.node();
        for (child, [a, b, c]) in (self.derive)(node, val) {
            ctx.send(child, Message::words(&[TAG_DOWN, a, b, c]));
        }
    }
}

impl<F: FnMut(NodeId, Val) -> ChildPayloads> Program for DownProgram<F> {
    type Output = Vec<Val>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if self.is_root {
            let val = self.root_val;
            self.received.push(val);
            self.fire(ctx, val);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (_, msg) in inbox {
            debug_assert_eq!(msg.word(0), TAG_DOWN);
            let val = [msg.word(1), msg.word(2), msg.word(3)];
            self.received.push(val);
            if !self.fired {
                self.fire(ctx, val);
            }
        }
    }

    fn finish(self) -> Vec<Val> {
        self.received
    }
}

/// Top-down distribution over all fragment trees in parallel.
///
/// Fragment roots start with `root_val(root)`; every vertex receiving
/// its *first* value computes per-child payloads with
/// `derive(vertex, value)` (which may capture per-vertex data, e.g.
/// children's subtree aggregates from a previous [`up_pass`]) and sends
/// them — to arbitrary neighbors, not only fragment-tree children, which
/// §3.3 uses to hand child-fragment roots their interval inside the
/// parent fragment. Later values are recorded but not propagated
/// (paper: "roots do not initiate another interval assignment when they
/// receive a message from their parent").
///
/// Returns every value each vertex received, in arrival order; fragment
/// roots see their own `root_val` first.
pub fn down_pass<'g, F>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    root_val: impl Fn(NodeId) -> Val,
    mut make_derive: impl FnMut(NodeId) -> F,
) -> (Vec<Vec<Val>>, RunStats)
where
    F: FnMut(NodeId, Val) -> ChildPayloads + Send,
{
    sim.run(|v, _| DownProgram {
        is_root: views[v].parent.is_none(),
        root_val: root_val(v),
        derive: make_derive(v),
        fired: false,
        received: Vec::new(),
    })
}

/// Broadcasts the fragment root's value to every vertex of the fragment
/// (a [`down_pass`] that forwards verbatim).
pub fn flood_pass<'g>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    root_val: impl Fn(NodeId) -> Val,
) -> (Vec<Option<Val>>, RunStats) {
    flood_pass_opt(sim, views, |v| Some(root_val(v)))
}

/// Selective [`flood_pass`]: only fragments whose root returns
/// `Some(val)` flood; the others stay silent and their vertices spend no
/// messages (and return `None`). Used by the global Borůvka phase to
/// re-label only the fragments whose component id actually changed.
pub fn flood_pass_opt<'g>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    root_val: impl Fn(NodeId) -> Option<Val>,
) -> (Vec<Option<Val>>, RunStats) {
    let children: Vec<Vec<NodeId>> = views.iter().map(FragView::children).collect();
    let (out, stats) = sim.run(|v, _| {
        let start = views[v].parent.is_none().then(|| root_val(v)).flatten();
        let ch = &children[v];
        DownProgram {
            is_root: start.is_some(),
            root_val: start.unwrap_or_default(),
            derive: move |_, val| ch.iter().map(|&c| (c, val)).collect::<ChildPayloads>(),
            fired: false,
            received: Vec::new(),
        }
    });
    (
        out.into_iter()
            .map(|vals| vals.into_iter().next())
            .collect(),
        stats,
    )
}

// ---------------------------------------------------------------------
// Re-rooting flood
// ---------------------------------------------------------------------

struct RerootProgram<'a> {
    is_new_root: bool,
    tree_neighbors: &'a [NodeId],
    new_parent: Option<NodeId>,
    done: bool,
}

impl RerootProgram<'_> {
    fn spread(&mut self, ctx: &mut Ctx<'_>, skip: Option<NodeId>) {
        for &u in self.tree_neighbors {
            if Some(u) != skip {
                ctx.send(u, Message::words(&[TAG_RESET]));
            }
        }
    }
}

impl Program for RerootProgram<'_> {
    type Output = Option<NodeId>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if self.is_new_root {
            self.done = true;
            self.spread(ctx, None);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (from, _) in inbox {
            if !self.done {
                self.done = true;
                self.new_parent = Some(*from);
                self.spread(ctx, Some(*from));
            }
        }
    }

    fn finish(self) -> Option<NodeId> {
        self.new_parent
    }
}

/// Re-roots each fragment tree at its vertex `v` with `is_new_root(v)`.
///
/// Returns updated views (same tree edges, new parent orientation).
///
/// # Panics
/// Panics if some fragment has no designated new root (its vertices
/// would keep `None` parents *and* miss the flood — detected by the
/// returned orientation check in debug builds).
pub fn reroot<'g>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    is_new_root: impl Fn(NodeId) -> bool,
) -> (Vec<FragView>, RunStats) {
    let (parents, stats) = sim.run(|v, _| RerootProgram {
        is_new_root: is_new_root(v),
        tree_neighbors: &views[v].tree_neighbors,
        new_parent: None,
        done: false,
    });
    let new_views = views
        .iter()
        .zip(parents)
        .map(|(view, parent)| FragView {
            parent,
            tree_neighbors: view.tree_neighbors.clone(),
        })
        .collect();
    (new_views, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::Simulator;
    use lightgraph::generators;
    use lightgraph::mst::kruskal;
    use lightgraph::tree::RootedTree;

    /// Builds views for the whole MST as one fragment rooted at `root`.
    fn mst_views(g: &lightgraph::Graph, root: NodeId) -> (RootedTree, Vec<FragView>) {
        let m = kruskal(g);
        let t = RootedTree::from_edge_ids(g, &m.edges, root);
        let views = (0..g.n())
            .map(|v| {
                let mut tn: Vec<NodeId> = t.children(v).to_vec();
                if let Some((p, _, _)) = t.parent(v) {
                    tn.push(p);
                }
                FragView {
                    parent: t.parent(v).map(|(p, _, _)| p),
                    tree_neighbors: tn,
                }
            })
            .collect();
        (t, views)
    }

    #[test]
    fn up_pass_sums_subtrees() {
        let g = generators::erdos_renyi(40, 0.1, 20, 1);
        let (t, views) = mst_views(&g, 0);
        let mut sim = Simulator::new(&g);
        let (vals, stats) = up_pass(&mut sim, &views, |_| [1, 0, 0], |a, b| [a[0] + b[0], 0, 0]);
        // root's aggregate = n
        assert_eq!(vals[0][0], 40);
        // every vertex's aggregate = its subtree size
        let mut size = vec![1u64; g.n()];
        for &v in t.bfs_order().iter().rev() {
            if let Some((p, _, _)) = t.parent(v) {
                size[p] += size[v];
            }
        }
        for v in 0..g.n() {
            assert_eq!(vals[v][0], size[v], "vertex {v}");
        }
        assert!(stats.rounds <= g.n() as u64 + 2);
    }

    #[test]
    fn flood_reaches_all_with_root_value() {
        let g = generators::grid(5, 5, 7, 2);
        let (_, views) = mst_views(&g, 3);
        let mut sim = Simulator::new(&g);
        let (vals, _) = flood_pass(&mut sim, &views, |v| [v as u64 * 10 + 9, 1, 2]);
        for v in 0..g.n() {
            assert_eq!(vals[v], Some([39, 1, 2]), "vertex {v}");
        }
    }

    #[test]
    fn down_pass_assigns_distinct_child_payloads() {
        let g = generators::path(6, 1);
        let (_, views) = mst_views(&g, 0);
        let mut sim = Simulator::new(&g);
        // each vertex passes val+1 down the path
        let views2 = views.clone();
        let (vals, _) = down_pass(
            &mut sim,
            &views,
            |_| [100, 0, 0],
            |v| {
                let ch = views2[v].children();
                move |_, val: Val| ch.iter().map(|&c| (c, [val[0] + 1, 0, 0])).collect()
            },
        );
        for v in 0..6 {
            assert_eq!(vals[v][0][0], 100 + v as u64);
        }
    }

    #[test]
    fn reroot_flips_orientation() {
        let g = generators::erdos_renyi(30, 0.15, 9, 5);
        let (_, views) = mst_views(&g, 0);
        let mut sim = Simulator::new(&g);
        let new_root = 17;
        let (nv, _) = reroot(&mut sim, &views, |v| v == new_root);
        assert_eq!(nv[new_root].parent, None);
        // every other vertex has a parent among its tree neighbors, and
        // following parents reaches the new root without cycles
        for v in 0..g.n() {
            if v == new_root {
                continue;
            }
            let p = nv[v].parent.expect("oriented");
            assert!(nv[v].tree_neighbors.contains(&p));
            let mut cur = v;
            let mut steps = 0;
            while let Some(p) = nv[cur].parent {
                cur = p;
                steps += 1;
                assert!(steps <= g.n(), "cycle after reroot");
            }
            assert_eq!(cur, new_root);
        }
    }

    #[test]
    fn passes_run_in_parallel_fragments() {
        // two disjoint path fragments inside a connected graph
        let g = generators::path(8, 1);
        // fragment A = 0..4 rooted at 0, fragment B = 4..8 rooted at 7
        let mut views = vec![FragView::default(); 8];
        for v in 0..4usize {
            let mut tn = Vec::new();
            if v > 0 {
                tn.push(v - 1);
            }
            if v < 3 {
                tn.push(v + 1);
            }
            views[v] = FragView {
                parent: (v > 0).then(|| v - 1),
                tree_neighbors: tn,
            };
        }
        for v in 4..8usize {
            let mut tn = Vec::new();
            if v > 4 {
                tn.push(v - 1);
            }
            if v < 7 {
                tn.push(v + 1);
            }
            views[v] = FragView {
                parent: (v < 7).then(|| v + 1),
                tree_neighbors: tn,
            };
        }
        let mut sim = Simulator::new(&g);
        let (vals, _) = up_pass(&mut sim, &views, |_| [1, 0, 0], |a, b| [a[0] + b[0], 0, 0]);
        assert_eq!(vals[0][0], 4, "fragment A root sees its 4 vertices");
        assert_eq!(vals[7][0], 4, "fragment B root sees its 4 vertices");
    }
}
