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
//! * [`reroot`] — the adopting flood: start vertices flood a payload
//!   along tree edges, and every vertex it reaches adopts the flood
//!   predecessor as its parent and the predecessor's payload.
//!   `O(height)` rounds. The Euler tour re-roots each base fragment at
//!   a designated vertex with it, and Borůvka's phase 1 relabels and
//!   re-roots each merged tail under its partner.
//!
//! All passes run in *all fragments in parallel*, exactly as the paper
//! prescribes ("locally in each fragment, i.e. in all the base fragments
//! in parallel"). [`up_pass`], [`flood_pass_opt`] and [`reroot`] are
//! selective: a fragment can sit a pass out, and then it spends no
//! message, so a pass costs the fragments that take part, not `n`.
//! Borůvka's phase 1 runs its growth passes only in the fragments that
//! can still grow.
//!
//! The passes allocate nothing per vertex beyond what they return: a
//! vertex counts and walks its children straight off its [`FragView`].

use congest::{Ctx, Executor, Message, Program, RunStats, Word};
use lightgraph::NodeId;

/// A three-word payload travelling through a fragment pass.
pub type Val = [Word; 3];

const TAG_UP: u64 = 1;
const TAG_DOWN: u64 = 2;
const TAG_ADOPT: u64 = 3;

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
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tree_neighbors
            .iter()
            .copied()
            .filter(move |&v| Some(v) != self.parent)
    }
}

// ---------------------------------------------------------------------
// Up pass
// ---------------------------------------------------------------------

struct UpProgram<C, T> {
    parent: Option<NodeId>,
    pending_children: usize,
    /// `None` while this vertex's fragment sits the pass out.
    acc: Option<Val>,
    combine: C,
    outgoing: T,
    /// Each child's value, recorded only for [`up_pass_full`] (`None`
    /// otherwise).
    received: Option<Vec<(NodeId, Val)>>,
    sent: bool,
}

impl<C: Fn(Val, Val) -> Val, T: Fn(Val) -> Val> UpProgram<C, T> {
    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_children == 0 && !self.sent {
            self.sent = true;
            if let (Some(p), Some(acc)) = (self.parent, self.acc) {
                let [a, b, c] = (self.outgoing)(acc);
                ctx.send(p, Message::words(&[TAG_UP, a, b, c]));
            }
        }
    }
}

impl<C: Fn(Val, Val) -> Val, T: Fn(Val) -> Val> Program for UpProgram<C, T> {
    type Output = Option<(Val, Vec<(NodeId, Val)>)>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.try_send(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (from, msg) in inbox {
            debug_assert_eq!(msg.word(0), TAG_UP);
            let v = [msg.word(1), msg.word(2), msg.word(3)];
            if let Some(received) = &mut self.received {
                received.push((*from, v));
            }
            let acc = self.acc.as_mut().expect("only taking-part fragments send");
            *acc = (self.combine)(*acc, v);
            self.pending_children -= 1;
        }
        self.try_send(ctx);
    }

    fn finish(self) -> Self::Output {
        debug_assert!(
            self.acc.is_none() || self.pending_children == 0,
            "a fragment takes part in a pass as a whole"
        );
        self.acc.map(|acc| (acc, self.received.unwrap_or_default()))
    }
}

/// Runs one [`UpProgram`] per vertex. A vertex with `own(v) = None` sits
/// the pass out: it sends nothing and its output is `None`.
fn run_up<'g, C, T>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    own: impl Fn(NodeId) -> Option<Val>,
    combine: C,
    mut outgoing: impl FnMut(NodeId) -> T,
    keep_received: bool,
) -> (Vec<Option<(Val, Vec<(NodeId, Val)>)>>, RunStats)
where
    C: Fn(Val, Val) -> Val + Clone + Send,
    T: Fn(Val) -> Val + Send,
{
    sim.run(|v, _| UpProgram {
        parent: views[v].parent,
        pending_children: views[v].children().count(),
        acc: own(v),
        combine: combine.clone(),
        outgoing: outgoing(v),
        received: keep_received.then(Vec::new),
        sent: false,
    })
}

/// Bottom-up aggregation over the fragment trees that take part.
///
/// `own(v)` is the vertex's initial value, or `None` when `v`'s fragment
/// sits the pass out; it must be `None` for every vertex of a fragment
/// or for none of them. `combine` must be associative and commutative.
/// Returns each taking-part vertex's aggregate over its fragment subtree
/// (fragment roots hold the fragment-wide aggregate) and `None`
/// elsewhere. Fragments that sit out spend no messages, so a pass over
/// `k` small fragments costs their sizes, not `n`.
pub fn up_pass<'g, C>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    own: impl Fn(NodeId) -> Option<Val>,
    combine: C,
) -> (Vec<Option<Val>>, RunStats)
where
    C: Fn(Val, Val) -> Val + Clone + Send,
{
    let (out, stats) = run_up(sim, views, own, combine, |_| identity_transform(), false);
    (
        out.into_iter().map(|o| o.map(|(acc, _)| acc)).collect(),
        stats,
    )
}

fn identity_transform() -> impl Fn(Val) -> Val {
    |v| v
}

/// Full-control bottom-up pass over every fragment: like [`up_pass`]
/// but the value a vertex *sends* to its parent is
/// `outgoing(v)(aggregate)` (e.g. "subtree tour length plus twice the
/// parent edge weight", §3.2), and the result includes the individual
/// values received from each child.
pub fn up_pass_full<'g, C, T>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    own: impl Fn(NodeId) -> Val,
    combine: C,
    outgoing: impl FnMut(NodeId) -> T,
) -> (Vec<(Val, Vec<(NodeId, Val)>)>, RunStats)
where
    C: Fn(Val, Val) -> Val + Clone + Send,
    T: Fn(Val) -> Val + Send,
{
    let (out, stats) = run_up(sim, views, |v| Some(own(v)), combine, outgoing, true);
    let out = out
        .into_iter()
        .map(|o| o.expect("every vertex takes part"))
        .collect();
    (out, stats)
}

// ---------------------------------------------------------------------
// Down pass
// ---------------------------------------------------------------------

struct DownProgram<F> {
    /// `Some(root value)` at a fragment root that starts the pass.
    start: Option<Val>,
    derive: F,
    /// The first value received (a root's own start value); receiving
    /// it fires `derive`.
    first: Option<Val>,
    /// Values received after the first: recorded, not propagated.
    later: Vec<Val>,
}

impl<F, I> DownProgram<F>
where
    F: FnMut(NodeId, Val) -> I,
    I: IntoIterator<Item = (NodeId, Val)>,
{
    fn receive(&mut self, ctx: &mut Ctx<'_>, val: Val) {
        if self.first.is_some() {
            self.later.push(val);
            return;
        }
        self.first = Some(val);
        let node = ctx.node();
        for (child, [a, b, c]) in (self.derive)(node, val) {
            ctx.send(child, Message::words(&[TAG_DOWN, a, b, c]));
        }
    }
}

impl<F, I> Program for DownProgram<F>
where
    F: FnMut(NodeId, Val) -> I,
    I: IntoIterator<Item = (NodeId, Val)>,
{
    type Output = (Option<Val>, Vec<Val>);

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(val) = self.start {
            self.receive(ctx, val);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (_, msg) in inbox {
            debug_assert_eq!(msg.word(0), TAG_DOWN);
            self.receive(ctx, [msg.word(1), msg.word(2), msg.word(3)]);
        }
    }

    fn finish(self) -> Self::Output {
        (self.first, self.later)
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
pub fn down_pass<'g, F, I>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    root_val: impl Fn(NodeId) -> Val,
    mut make_derive: impl FnMut(NodeId) -> F,
) -> (Vec<Vec<Val>>, RunStats)
where
    F: FnMut(NodeId, Val) -> I + Send,
    I: IntoIterator<Item = (NodeId, Val)>,
{
    let (out, stats) = sim.run(|v, _| DownProgram {
        start: views[v].parent.is_none().then(|| root_val(v)),
        derive: make_derive(v),
        first: None,
        later: Vec::new(),
    });
    let out = out
        .into_iter()
        .map(|(first, later)| first.into_iter().chain(later).collect())
        .collect();
    (out, stats)
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
/// messages (and return `None`). Used by Borůvka to send phase-1 status
/// only into fragments that can still grow, and by its global phase to
/// re-label only the fragments whose component id actually changed.
pub fn flood_pass_opt<'g>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    root_val: impl Fn(NodeId) -> Option<Val>,
) -> (Vec<Option<Val>>, RunStats) {
    let (out, stats) = sim.run(|v, _| {
        let view = &views[v];
        DownProgram {
            start: view.parent.is_none().then(|| root_val(v)).flatten(),
            derive: move |_, val| view.children().map(move |c| (c, val)),
            first: None,
            later: Vec::new(),
        }
    });
    (out.into_iter().map(|(first, _)| first).collect(), stats)
}

// ---------------------------------------------------------------------
// Adopting flood
// ---------------------------------------------------------------------

struct AdoptProgram<'a> {
    /// `(payload, parent)`: a start vertex's own from construction,
    /// every other vertex's from its first message.
    adopted: Option<(Val, Option<NodeId>)>,
    tree_neighbors: &'a [NodeId],
}

impl AdoptProgram<'_> {
    fn forward(&self, ctx: &mut Ctx<'_>, [a, b, c]: Val, skip: Option<NodeId>) {
        let msg = Message::words(&[TAG_ADOPT, a, b, c]);
        for &u in self.tree_neighbors {
            if Some(u) != skip {
                ctx.send(u, msg.clone());
            }
        }
    }
}

impl Program for AdoptProgram<'_> {
    type Output = Option<(Val, Option<NodeId>)>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((val, _)) = self.adopted {
            self.forward(ctx, val, None);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        if let (None, Some((from, msg))) = (self.adopted, inbox.first()) {
            debug_assert_eq!(msg.word(0), TAG_ADOPT);
            let val = [msg.word(1), msg.word(2), msg.word(3)];
            self.adopted = Some((val, Some(*from)));
            self.forward(ctx, val, Some(*from));
        }
    }

    fn finish(self) -> Self::Output {
        self.adopted
    }
}

/// Re-roots fragment trees by flooding along tree edges from the start
/// vertices, `start(v) = Some((payload, parent))`.
///
/// A start vertex keeps its own payload and parent: `None` for a new
/// fragment root, or a vertex outside the fragment (Borůvka's relabel
/// hangs a merged tail under its partner across the MWOE). Every other
/// vertex the flood reaches adopts the first sender in its inbox as its
/// parent, and that sender's payload, then forwards to its other tree
/// neighbors. One message per tree edge of each flooded fragment, and
/// `O(height)` rounds. Returns each vertex's `(payload, parent)`;
/// vertices of fragments without a start vertex send nothing and read
/// `None`.
pub fn reroot<'g>(
    sim: &mut impl Executor<'g>,
    views: &[FragView],
    start: impl Fn(NodeId) -> Option<(Val, Option<NodeId>)>,
) -> (Vec<Option<(Val, Option<NodeId>)>>, RunStats) {
    sim.run(|v, _| AdoptProgram {
        adopted: start(v),
        tree_neighbors: &views[v].tree_neighbors,
    })
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
        let (vals, stats) = up_pass(
            &mut sim,
            &views,
            |_| Some([1, 0, 0]),
            |a, b| [a[0] + b[0], 0, 0],
        );
        let vals: Vec<Val> = vals.into_iter().map(Option::unwrap).collect();
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
                let ch: Vec<NodeId> = views2[v].children().collect();
                move |_, val: Val| {
                    ch.iter()
                        .map(|&c| (c, [val[0] + 1, 0, 0]))
                        .collect::<Vec<_>>()
                }
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
        let (adopted, stats) = reroot(&mut sim, &views, |v| {
            (v == new_root).then_some(([5, 6, 7], None))
        });
        assert_eq!(
            stats.messages,
            g.n() as u64 - 1,
            "one message per tree edge"
        );
        let parent: Vec<Option<NodeId>> = adopted
            .iter()
            .map(|a| {
                let (val, parent) = a.expect("the flood reaches every vertex");
                assert_eq!(val, [5, 6, 7], "the start's payload spreads");
                parent
            })
            .collect();
        assert_eq!(parent[new_root], None);
        // every other vertex has a parent among its tree neighbors, and
        // following parents reaches the new root without cycles
        for v in 0..g.n() {
            if v == new_root {
                continue;
            }
            let p = parent[v].expect("oriented");
            assert!(views[v].tree_neighbors.contains(&p));
            let mut cur = v;
            let mut steps = 0;
            while let Some(p) = parent[cur] {
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
        let count = |a: Val, b: Val| [a[0] + b[0], 0, 0];
        let (vals, _) = up_pass(&mut sim, &views, |_| Some([1, 0, 0]), count);
        assert_eq!(
            vals[0],
            Some([4, 0, 0]),
            "fragment A root sees its 4 vertices"
        );
        assert_eq!(
            vals[7],
            Some([4, 0, 0]),
            "fragment B root sees its 4 vertices"
        );
        // Fragment B sits out: it spends no message and reads `None`.
        let (vals, stats) = up_pass(&mut sim, &views, |v| (v < 4).then_some([1, 0, 0]), count);
        assert_eq!(vals[0], Some([4, 0, 0]));
        assert!(vals[4..].iter().all(Option::is_none));
        assert_eq!(stats.messages, 3, "one message per tree edge of fragment A");
        let (vals, stats) = flood_pass_opt(&mut sim, &views, |v| (v == 7).then_some([9, 0, 0]));
        assert!(vals[..4].iter().all(Option::is_none));
        assert!(vals[4..].iter().all(|&val| val == Some([9, 0, 0])));
        assert_eq!(stats.messages, 3, "one message per tree edge of fragment B");
        // Borůvka's relabel: fragment A merges into B across edge 3-4,
        // so its acting endpoint 3 starts under its partner 4, with the
        // new id 7 and a frozen flag. Fragment B has no start vertex,
        // so it sends nothing and reads `None`.
        let (adopted, stats) = reroot(&mut sim, &views, |v| {
            (v == 3).then_some(([7, 1, 0], Some(4)))
        });
        assert_eq!(stats.messages, 3, "one message per tree edge of fragment A");
        let parents: Vec<Option<NodeId>> = adopted[..4]
            .iter()
            .map(|&a| {
                let (val, parent) = a.expect("fragment A is flooded");
                assert_eq!(val, [7, 1, 0]);
                parent
            })
            .collect();
        assert_eq!(parents, [Some(1), Some(2), Some(3), Some(4)]);
        assert!(adopted[4..].iter().all(Option::is_none));
    }
}
