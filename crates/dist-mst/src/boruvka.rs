//! Two-phase distributed MST (the \[KP98\]/\[Elk17b\] substitute of §3.1).
//!
//! Phase 1 grows *base fragments* by local star-merges with a diameter
//! cap: every fragment maintains a spanning tree of real graph edges and
//! a diameter estimate held at its leader; each phase, small fragments
//! find their minimum-weight outgoing edge (MWOE) by an intra-fragment
//! convergecast, flip a common-seed coin, and tails merge into heads (or
//! into frozen large fragments) across their MWOE. Star merges keep the
//! merge depth at one, and the estimate cap keeps base-fragment
//! hop-diameter `O(√n · log n)`; fragments of diameter `≥ √n` number at
//! most `√n`, so phase 1 ends with `O(√n)` base fragments — exactly the
//! structure §3 consumes.
//!
//! Phase 1 pays only for fragments that can still change. Once a
//! leader's status flood says FROZEN, every member keeps that flag; a
//! tail that merges into a frozen fragment learns it from the status
//! word of the ACC reply and passes it down its relabel flood. Frozen
//! fragments then sit out the MWOE convergecast and the status flood,
//! and the diameter-bump convergecast runs only in HEAD fragments. This
//! changes no merge decision: `est` only grows, so a frozen fragment
//! stays frozen, it only ever accepts suitors, and its `est` is never
//! read again. The termination census is one fixed-width
//! `(fragments, active)` sum per τ edge ([`congest::collective::sum`]),
//! and [`MstResult::phase1_schedule`] records it per iteration.
//!
//! Phase 2 finishes the MST globally: per-fragment MWOEs flow up the
//! BFS tree through the **combiner-aware convergecast**
//! ([`congest::collective::converge_merged`]) — the lexicographic
//! `(weight, edge)` minimum is a semilattice merge, so candidates merge
//! *in flight* inside the clause-7 per-edge queues and nothing waits for
//! a slower key — the root resolves the merges once and returns
//! each re-labeled component id along tree paths
//! ([`congest::collective::downcast`] to the affected base-fragment
//! leaders, then a selective intra-fragment flood). Borůvka halving
//! gives `O(log n)` global phases. Neighbor fragment ids are kept in a
//! persistent per-edge table (`NbrTable`) refreshed *incrementally*:
//! only vertices whose id changed re-announce, and only across their
//! cross-fragment edges — same-fragment neighbors made the identical
//! relabel move and repair their entries locally. The table opens at
//! identity knowledge (neighbor ids are readable off the edge list in
//! CONGEST), so the historical `2m` opening flood is never paid and
//! every refresh charges only the boundary of what actually merged.
//!
//! Ties are broken by `(weight, edge id)` throughout, which makes edge
//! weights effectively unique, the MST unique, and the distributed
//! result bit-identical to sequential Kruskal with the same tie-break.

use crate::passes::{self, FragView, Val};
use congest::collective;
use congest::obs;
use congest::tree::BfsTree;
use congest::{pack2, unpack2, Ctx, Executor, Message, Program, RunStats, Word};
use lightgraph::{splitmix64, EdgeId, Graph, NodeId, Weight, INF};
use std::collections::{BTreeMap, HashMap, HashSet};

const STATUS_TAIL: u64 = 0;
const STATUS_HEAD: u64 = 1;
const STATUS_FROZEN: u64 = 2;

const TAG_REQ: u64 = 11;
const TAG_ACC: u64 = 12;
const TAG_REJ: u64 = 13;

/// Result of the distributed MST construction.
#[derive(Debug, Clone)]
pub struct MstResult {
    /// All `n - 1` MST edge ids, sorted.
    pub mst_edges: Vec<EdgeId>,
    /// Total MST weight.
    pub weight: Weight,
    /// Base fragment of each vertex (the fragment *leader's* vertex id —
    /// stable across the run).
    pub base_fragment_of: Vec<u64>,
    /// Phase-1 fragment trees: parent orientation towards each
    /// fragment's leader, `tree_neighbors` = incident internal edges.
    pub base_views: Vec<FragView>,
    /// The phase-2 MST edges crossing between base fragments ("external
    /// edges" in §3.1); `|external_edges| = #fragments - 1`.
    pub external_edges: Vec<EdgeId>,
    /// Number of phase-1 (local growth) iterations executed.
    pub phase1_iterations: usize,
    /// `(fragments, active)` after each phase-1 iteration, as its
    /// termination census counted them: all fragments, and those that
    /// are neither frozen nor out of outgoing edges. Phase 1 stops once
    /// `fragments ≤ ⌈√n⌉`, `active = 0` or the iteration cap is hit.
    pub phase1_schedule: Vec<(usize, usize)>,
    /// Number of phase-2 (global Borůvka) iterations executed.
    pub phase2_iterations: usize,
    /// Rounds and messages consumed by the whole construction.
    pub stats: RunStats,
    /// Cached base-fragment count (one leader per fragment), computed
    /// once at construction — [`Self::fragment_count`] used to clone and
    /// sort `base_fragment_of` on every call.
    fragments: usize,
}

impl MstResult {
    /// Number of base fragments.
    pub fn fragment_count(&self) -> usize {
        self.fragments
    }
}

/// Persistent neighbor-fragment table: `frag_at[v][i]` holds the latest
/// fragment id known for the `i`-th neighbor of `v` (slot-aligned with
/// `g.neighbors(v)`, a dense `Vec` rather than a per-round `HashMap`).
/// The table opens at identity knowledge (see [`NbrTable::new`]) and
/// [`NbrTable::refresh`] is *incremental*: a vertex re-announces only
/// when its fragment id changed since its last announcement, and only
/// across edges whose far endpoint cannot deduce the change locally —
/// each refresh charges only the cross-fragment boundary of what
/// actually merged, never a `2m` flood.
struct NbrTable {
    /// Neighbor id → slot, built once at construction (off the per-phase
    /// hot path; lookups during a refresh are one hash per *update*).
    /// A vertex with parallel edges has fewer entries than slots, and
    /// an update from `u` then rewrites every slot of `u`.
    slot: Vec<HashMap<NodeId, usize>>,
    frag_at: Vec<Vec<u64>>,
    last_announced: Vec<u64>,
}

impl NbrTable {
    /// Starts from *identity knowledge*: every vertex begins in its own
    /// singleton fragment (`frag[v] = v`), and in CONGEST a vertex's
    /// neighbor list already names each neighbor's id — so the table
    /// opens as `frag_at[v][i] = u` and `last_announced[v] = v` with
    /// zero messages. The historical `2m` opening flood announced
    /// exactly this (every vertex telling neighbors its own id, which
    /// they could already read off the edge), so skipping it changes no
    /// observable state, only the message bill.
    fn new(g: &Graph) -> Self {
        NbrTable {
            slot: (0..g.n())
                .map(|v| {
                    g.neighbors(v)
                        .iter()
                        .enumerate()
                        .map(|(i, &(u, _, _))| (u, i))
                        .collect()
                })
                .collect(),
            frag_at: (0..g.n())
                .map(|v| g.neighbors(v).iter().map(|&(u, _, _)| u as u64).collect())
                .collect(),
            last_announced: (0..g.n() as u64).collect(),
        }
    }

    /// Brings the table up to date with `frag`, charging only changed
    /// vertices — and, per changed vertex, only its *cross-fragment*
    /// edges.
    ///
    /// Relabels are fragment-uniform: every vertex sharing a fragment
    /// id relabels to the same new id in the same step, and exactly one
    /// relabel step separates two refreshes. So when `v` moved from
    /// `old` to `frag[v]`, a neighbor that `v` last saw in `old` made
    /// the *identical* move and can repair its own table locally —
    /// each changed vertex rewrites its entries equal to its own old id
    /// (the "rewrite pass" below) instead of receiving a message. Only
    /// neighbors `v` last saw in a *different* fragment hold a stale
    /// entry no local rule can fix; those are the announce targets, in
    /// neighbor-slot order, and each hears `v`'s new id through one
    /// [`collective::exchange`]. Received updates and local rewrites
    /// touch disjoint slots (a neighbor announces to `v` only when their
    /// old ids differ, and the rewrite touches only entries equal to
    /// `v`'s old id), so application order is irrelevant.
    fn refresh<'g>(&mut self, sim: &mut impl Executor<'g>, frag: &[u64]) {
        let g = sim.graph();
        let last = &self.last_announced;
        let frag_at = &self.frag_at;
        // Targets are computed against the pre-rewrite table: entries
        // still hold what `v` knew at its last announcement.
        let (heard, _) = collective::exchange(sim, |v| {
            let old = last[v];
            (frag[v] != old).then(|| {
                let targets = g
                    .neighbors(v)
                    .iter()
                    .zip(&frag_at[v])
                    .filter(move |&(_, &f)| f != old)
                    .map(|(&(u, _, _), _)| u);
                ([frag[v]], targets)
            })
        });
        // Rewrite pass: a changed vertex repairs same-old-fragment
        // entries locally (they all made the same move it did).
        for v in 0..frag.len() {
            let old = self.last_announced[v];
            if frag[v] != old {
                for e in &mut self.frag_at[v] {
                    if *e == old {
                        *e = frag[v];
                    }
                }
            }
        }
        for (v, updates) in heard.into_iter().enumerate() {
            let simple = self.slot[v].len() == self.frag_at[v].len();
            for (u, [f]) in updates {
                if simple {
                    self.frag_at[v][self.slot[v][&u]] = f;
                } else {
                    for (i, &(x, _, _)) in g.neighbors(v).iter().enumerate() {
                        if x == u {
                            self.frag_at[v][i] = f;
                        }
                    }
                }
            }
        }
        self.last_announced.copy_from_slice(frag);
    }
}

/// The tail→head merge negotiation across MWOE edges (two rounds).
struct Negotiate {
    /// `Some((partner vertex, own frag, own est))` if this vertex is the
    /// acting endpoint of a participating tail fragment.
    request: Option<(NodeId, u64, u64)>,
    /// This vertex's fragment status: from this iteration's status
    /// flood, or `STATUS_FROZEN` kept from an earlier one.
    status: u64,
    frag: u64,
    /// Suitors accepted at this vertex: `(tail endpoint, tail est)`.
    accepted: Vec<(NodeId, u64)>,
    /// Merge decision if this vertex's request was accepted: the new
    /// fragment id, the partner, and whether that fragment is frozen.
    merge_into: Option<(u64, NodeId, bool)>,
}

impl Program for Negotiate {
    type Output = (Vec<(NodeId, u64)>, Option<(u64, NodeId, bool)>);
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((partner, frag, est)) = self.request {
            ctx.send(partner, Message::words(&[TAG_REQ, frag, est]));
        }
    }
    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (from, msg) in inbox {
            match msg.word(0) {
                TAG_REQ => {
                    if self.status == STATUS_HEAD || self.status == STATUS_FROZEN {
                        self.accepted.push((*from, msg.word(2)));
                        ctx.send(*from, Message::words(&[TAG_ACC, self.frag, self.status]));
                    } else {
                        ctx.send(*from, Message::words(&[TAG_REJ]));
                    }
                }
                TAG_ACC => {
                    let frozen = msg.word(2) == STATUS_FROZEN;
                    self.merge_into = Some((msg.word(1), *from, frozen));
                }
                TAG_REJ => {}
                other => unreachable!("unexpected tag {other}"),
            }
        }
    }
    fn finish(self) -> Self::Output {
        (self.accepted, self.merge_into)
    }
}

/// Per-vertex local minimum outgoing edge, as an up-pass value
/// `[weight, pack2(edge, partner fragment), 0]` (`[INF, MAX, 0]` if
/// none). `nbr_frag` is the vertex's slot-aligned [`NbrTable`] row.
fn local_mwoe(g: &Graph, v: NodeId, frag: &[u64], nbr_frag: &[u64]) -> Val {
    let mut best: Val = [INF, Word::MAX, 0];
    for (i, &(_, w, e)) in g.neighbors(v).iter().enumerate() {
        let uf = nbr_frag[i];
        debug_assert_ne!(uf, u64::MAX, "neighbor id exchanged");
        if uf != frag[v] {
            let cand = [w, pack2(e as u64, uf), 0];
            if (cand[0], cand[1]) < (best[0], best[1]) {
                best = cand;
            }
        }
    }
    best
}

fn min_by_weight_edge(a: Val, b: Val) -> Val {
    if (a[0], a[1]) <= (b[0], b[1]) {
        a
    } else {
        b
    }
}

/// Runs the two-phase distributed MST. The MST is unique (ties break
/// by edge id), and each base fragment is rooted at its leader.
///
/// `tau` is the BFS tree used for global coordination (build it once
/// with [`congest::tree::build_bfs_tree`]); `seed` feeds the phase-1
/// coin flips. Round/message costs accrue in `sim` and are reported in
/// [`MstResult::stats`].
///
/// # Panics
/// Panics if the graph is disconnected.
pub fn distributed_mst<'g>(sim: &mut impl Executor<'g>, tau: &BfsTree, seed: u64) -> MstResult {
    let g = sim.graph();
    let n = g.n();
    let start_stats = sim.total();
    let diam_cap = (n as f64).sqrt().ceil() as u64;
    let target_frags = ((n as f64).sqrt().ceil() as usize).max(1);
    let max_phase1 = 4 * (usize::BITS - n.leading_zeros()) as usize + 8;

    let mut frag: Vec<u64> = (0..n as u64).collect();
    let mut views: Vec<FragView> = vec![FragView::default(); n];
    let mut est: Vec<u64> = vec![0; n]; // meaningful at leaders

    // Sticky per-vertex flag: a frozen fragment never grows again (its
    // `est` only grows, and it only ever accepts suitors), so it sits
    // out the MWOE convergecast, the status flood and the bump.
    let mut frozen: Vec<bool> = vec![false; n];
    let mut phase1_iterations = 0;
    let mut phase1_schedule = Vec::new();
    // Persistent neighbor-fragment table, shared by both phases.
    let mut nbr_table = NbrTable::new(g);

    obs::span(sim, "grow", |sim| {
        if n > 1 {
            loop {
                phase1_iterations += 1;
                // (a) neighbors learn each other's fragment ids
                // (incremental: only re-labeled vertices announce).
                nbr_table.refresh(sim, &frag);
                let nbr = &nbr_table.frag_at;
                // (b) MWOE convergecast inside the unfrozen fragments.
                let frag_ref = &frag;
                let (mwoe, _) = passes::up_pass(
                    sim,
                    &views,
                    |v| (!frozen[v]).then(|| local_mwoe(g, v, frag_ref, &nbr[v])),
                    min_by_weight_edge,
                );
                // (c) their leaders pick a status and flood it with the
                // MWOE; frozen fragments keep theirs.
                let est_ref = &est;
                let phase_salt = splitmix64(seed ^ (phase1_iterations as u64) << 17);
                let (flood, _) = passes::flood_pass_opt(sim, &views, |v| {
                    // only evaluated at fragment roots
                    let mwoe = mwoe[v]?;
                    let has_mwoe = mwoe[0] < INF;
                    let status = if !has_mwoe || est_ref[v] >= diam_cap {
                        STATUS_FROZEN
                    } else if splitmix64(phase_salt ^ frag_ref[v]) & 1 == 1 {
                        STATUS_HEAD
                    } else {
                        STATUS_TAIL
                    };
                    let edge_word = if has_mwoe {
                        unpack2(mwoe[1]).0
                    } else {
                        Word::MAX
                    };
                    Some([status, edge_word, est_ref[v]])
                });
                let flood: Vec<Val> = flood
                    .into_iter()
                    .zip(&frozen)
                    .map(|(val, &was_frozen)| match val {
                        Some(val) => val,
                        None if was_frozen => [STATUS_FROZEN, Word::MAX, 0],
                        None => panic!("status flood reaches every unfrozen vertex"),
                    })
                    .collect();
                for v in 0..n {
                    frozen[v] = flood[v][0] == STATUS_FROZEN;
                }
                // (d) negotiate across MWOE edges.
                let (negotiated, _) = sim.run(|v, _| {
                    let [status, mwoe_edge, fest] = flood[v];
                    let mut request = None;
                    if status == STATUS_TAIL && mwoe_edge != Word::MAX {
                        for (i, &(u, _, e)) in g.neighbors(v).iter().enumerate() {
                            if e as u64 == mwoe_edge && nbr[v][i] != frag[v] {
                                request = Some((u, frag[v], fest));
                            }
                        }
                    }
                    Negotiate {
                        request,
                        status,
                        frag: frag[v],
                        accepted: Vec::new(),
                        merge_into: None,
                    }
                });
                // (e) diameter-bump convergecast over the head trees
                // (tails reject every request, and a frozen fragment's
                // `est` is never read again).
                let (bump, _) = passes::up_pass(
                    sim,
                    &views,
                    |v| {
                        (flood[v][0] == STATUS_HEAD).then(|| {
                            let b = negotiated[v]
                                .0
                                .iter()
                                .map(|&(_, e)| e + 1)
                                .max()
                                .unwrap_or(0);
                            [b, 0, 0]
                        })
                    },
                    |a, b| [a[0].max(b[0]), 0, 0],
                );
                // (f) relabel/re-root flood inside merged tails: the
                // acting endpoint starts it under its partner, with the
                // new fragment id and frozen flag as the payload.
                let (relabels, _) = passes::reroot(sim, &views, |v| {
                    let (new_frag, partner, frozen) = negotiated[v].1?;
                    Some(([new_frag, frozen as u64, 0], Some(partner)))
                });
                // (g) local state updates (free).
                for v in 0..n {
                    for &(suitor, _) in &negotiated[v].0 {
                        views[v].tree_neighbors.push(suitor);
                    }
                }
                for v in 0..n {
                    if let Some(([new_frag, joined_frozen, _], new_parent)) = relabels[v] {
                        frag[v] = new_frag;
                        views[v].parent = new_parent;
                        frozen[v] = joined_frozen != 0;
                        if let Some((_, partner, _)) = negotiated[v].1 {
                            if !views[v].tree_neighbors.contains(&partner) {
                                views[v].tree_neighbors.push(partner);
                            }
                        }
                    }
                }
                for v in 0..n {
                    if views[v].parent.is_none() {
                        if let Some([b, _, _]) = bump[v] {
                            est[v] += 2 * b;
                        }
                    }
                }
                // (h) global termination census: every leader reports
                // (1, active), summed over τ in one fixed-width
                // message per tree edge.
                let ([fragments, active], _) = collective::sum(sim, tau, |v| {
                    if views[v].parent.is_none() {
                        [1, !frozen[v] as u64]
                    } else {
                        [0, 0]
                    }
                });
                phase1_schedule.push((fragments as usize, active as usize));
                if fragments <= target_frags as u64
                    || active == 0
                    || phase1_iterations >= max_phase1
                {
                    break;
                }
            }
        }
    });

    // Base fragment structure is frozen here.
    let base_fragment_of = frag.clone();
    let base_views = views.clone();
    // One leader (parent-less vertex) per base fragment.
    let fragments = (0..n).filter(|&v| base_views[v].parent.is_none()).count();

    // ------------------------------------------------------------------
    // Phase 2: global pipelined Borůvka on the fragment graph.
    // ------------------------------------------------------------------
    let mut external_edges: Vec<EdgeId> = Vec::new();
    let mut chosen_set: HashSet<EdgeId> = HashSet::new();
    let mut phase2_iterations = 0;
    obs::span(sim, "merge", |sim| loop {
        phase2_iterations += 1;
        nbr_table.refresh(sim, &frag);
        let nbr = &nbr_table.frag_at;
        let frag_ref = &frag;
        // Per-fragment MWOEs merge *in flight* through the eager
        // combiner-aware convergecast: the lexicographic (weight, edge)
        // min is a lawful semilattice merge, so the root map is the
        // per-fragment minimum whatever the schedule, and the
        // union-find replay below — and the MST — does not depend on
        // arrival order.
        let (map, _) = collective::converge_merged(
            sim,
            tau,
            |v| {
                let best = local_mwoe(g, v, frag_ref, &nbr[v]);
                if best[0] < INF {
                    vec![(frag_ref[v], [best[0], best[1]])]
                } else {
                    Vec::new()
                }
            },
            |_, a, b| {
                if (a[0], a[1]) <= (b[0], b[1]) {
                    a
                } else {
                    b
                }
            },
        );
        if map.is_empty() {
            break; // single fragment: MST complete
        }
        // Deterministic merge resolution (identical at every vertex;
        // performed once here on their behalf, in key order).
        let mut rep: BTreeMap<u64, u64> = BTreeMap::new();
        let find = |rep: &mut BTreeMap<u64, u64>, mut x: u64| {
            while rep.get(&x).copied().unwrap_or(x) != x {
                x = rep[&x];
            }
            x
        };
        for (&frag_a, &[_, packed]) in &map {
            let (edge, frag_b) = unpack2(packed);
            let (ra, rb) = (find(&mut rep, frag_a), find(&mut rep, frag_b));
            if ra != rb {
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                rep.insert(hi, lo);
            }
            if chosen_set.insert(edge as EdgeId) {
                external_edges.push(edge as EdgeId);
            }
        }
        // Instead of broadcasting every chosen edge to every vertex,
        // the root unicasts each *changed* component id to the affected
        // base-fragment leaders (members of a base fragment always share
        // their phase-2 id), and a selective flood spreads it inside
        // exactly those fragments.
        let mut relabel_items: Vec<(NodeId, collective::Item)> = Vec::new();
        for v in 0..n {
            if base_views[v].parent.is_none() {
                let new = find(&mut rep, frag[v]);
                if new != frag[v] {
                    relabel_items.push((v, (v as u64, [new, 0])));
                }
            }
        }
        let (newid, _) = collective::downcast(sim, tau, relabel_items);
        let newid_ref = &newid;
        let (flooded, _) = passes::flood_pass_opt(sim, &base_views, |v| {
            newid_ref[v].first().map(|&(_, [f, _])| [f, 0, 0])
        });
        for v in 0..n {
            frag[v] = find(&mut rep, frag[v]);
            debug_assert_eq!(
                flooded[v].map(|val| val[0]).unwrap_or(frag[v]),
                frag[v],
                "flooded relabel disagrees with the replay"
            );
        }
        assert!(
            phase2_iterations <= 2 * usize::BITS as usize,
            "phase 2 failed to converge — disconnected graph?"
        );
    });

    // Assemble the MST edge set: internal (fragment tree) + external.
    let mut mst_edges: Vec<EdgeId> = Vec::with_capacity(n.saturating_sub(1));
    for v in 0..n {
        if let Some(p) = base_views[v].parent {
            let (_, e) = g
                .edge_between(v, p)
                .expect("fragment tree edge exists in graph");
            mst_edges.push(e);
        }
    }
    mst_edges.extend(&external_edges);
    mst_edges.sort_unstable();
    mst_edges.dedup();
    assert_eq!(
        mst_edges.len(),
        n.saturating_sub(1),
        "MST must have n-1 edges — graph disconnected or merge bug"
    );
    let weight = mst_edges.iter().map(|&e| g.edge(e).w).sum();

    let stats = sim.total().since(start_stats);

    MstResult {
        mst_edges,
        weight,
        base_fragment_of,
        base_views,
        external_edges,
        phase1_iterations,
        phase1_schedule,
        phase2_iterations,
        stats,
        fragments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::tree::build_bfs_tree;
    use congest::Simulator;
    use lightgraph::{generators, mst::kruskal};

    fn check_graph(g: &Graph, seed: u64) -> MstResult {
        let mut sim = Simulator::new(g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let result = distributed_mst(&mut sim, &tau, seed);
        let reference = kruskal(g);
        assert_eq!(result.weight, reference.weight, "weight mismatch");
        assert_eq!(result.mst_edges, reference.edges, "edge set mismatch");
        result
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::erdos_renyi(60, 0.1, 50, seed);
            check_graph(&g, seed);
        }
    }

    #[test]
    fn matches_kruskal_on_structured_graphs() {
        check_graph(&generators::path(40, 7), 1);
        check_graph(&generators::cycle(33, 5), 2);
        check_graph(&generators::star(25, 9, 3), 3);
        check_graph(&generators::grid(7, 8, 20, 4), 4);
        check_graph(&generators::complete(20, 30, 5), 5);
        check_graph(&generators::random_geometric(50, 0.3, 6), 6);
    }

    #[test]
    fn single_vertex_and_edge() {
        check_graph(&Graph::new(1), 0);
        check_graph(&Graph::from_edges(2, [(0, 1, 5)]).unwrap(), 0);
    }

    #[test]
    fn fragment_structure_is_consistent() {
        let g = generators::erdos_renyi(100, 0.08, 40, 9);
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let r = distributed_mst(&mut sim, &tau, 9);
        let f = r.fragment_count();
        assert_eq!(
            r.external_edges.len(),
            f - 1,
            "T' must be a tree on fragments"
        );
        // each fragment has exactly one leader (parent == None), and the
        // fragment id equals the leader's vertex id
        for v in 0..g.n() {
            if r.base_views[v].parent.is_none() {
                assert_eq!(r.base_fragment_of[v], v as u64);
            }
        }
        // fragment trees are internally consistent: following parents
        // stays within the fragment and reaches the leader
        for v in 0..g.n() {
            let mut cur = v;
            let mut steps = 0;
            while let Some(p) = r.base_views[cur].parent {
                assert_eq!(r.base_fragment_of[p], r.base_fragment_of[v]);
                cur = p;
                steps += 1;
                assert!(steps <= g.n());
            }
            assert_eq!(cur as u64, r.base_fragment_of[v]);
        }
        // external edges really cross fragments
        for &e in &r.external_edges {
            let edge = g.edge(e);
            assert_ne!(r.base_fragment_of[edge.u], r.base_fragment_of[edge.v]);
        }
    }

    /// FNV-1a over a word stream.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Pins every phase-1 merge decision: iteration counts, the base
    /// fragments (an order-sensitive fold over `base_fragment_of` and
    /// over the `base_views` parents, `None` folded as `u64::MAX`) and
    /// the phase-2 external edges. Which fragments take part in which
    /// pass is cost, not structure — these values must not move when it
    /// changes.
    #[test]
    fn phase1_structure_is_pinned() {
        let cases: [(&str, Graph, [u64; 4], [u64; 3]); 4] = [
            (
                "geometric-2000",
                generators::Family::Geometric.generate(2000, 1),
                [16, 4, 88, 87],
                [
                    0x303d_1ecf_dbb0_5b8f,
                    0xa2bd_bcf2_c993_a5c6,
                    0x3618_7d29_09fd_fb67,
                ],
            ),
            (
                "gnp-300",
                generators::gnp_sparse(300, 0.05, 100, 2),
                [12, 3, 17, 16],
                [
                    0xd445_da4b_b110_d9b0,
                    0x8feb_28e0_6872_d2af,
                    0x2e53_2a75_7528_85d9,
                ],
            ),
            (
                "path-300",
                generators::path(300, 1),
                [11, 2, 27, 26],
                [
                    0xb721_5b40_dc77_044d,
                    0x9fc4_c97f_6e3d_e7b9,
                    0x8b8c_d923_4831_3763,
                ],
            ),
            (
                "grid-16x16",
                generators::grid(16, 16, 100, 4),
                [12, 3, 18, 17],
                [
                    0xfbb3_139f_85e2_d4bb,
                    0x2cc0_74e4_e6fc_ffc1,
                    0x2e9b_3b0d_ee27_bf9e,
                ],
            ),
        ];
        for (name, g, counts, folds) in cases {
            let mut sim = Simulator::new(&g);
            let (tau, _) = build_bfs_tree(&mut sim, 0);
            let r = distributed_mst(&mut sim, &tau, 7);
            let got_counts = [
                r.phase1_iterations as u64,
                r.phase2_iterations as u64,
                r.fragment_count() as u64,
                r.external_edges.len() as u64,
            ];
            assert_eq!(
                got_counts, counts,
                "{name}: phase-1/2 iterations, fragments, external edges"
            );
            let got_folds = [
                fnv(r.external_edges.iter().map(|&e| e as u64)),
                fnv(r.base_fragment_of.iter().copied()),
                fnv(r
                    .base_views
                    .iter()
                    .map(|view| view.parent.map_or(u64::MAX, |p| p as u64))),
            ];
            assert_eq!(
                got_folds, folds,
                "{name}: external edges, base fragments, parents"
            );
        }
    }

    #[test]
    fn fragments_have_bounded_diameter_on_paths() {
        // A path is the diameter-growth worst case; the cap must hold.
        let g = generators::path(100, 3);
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let r = distributed_mst(&mut sim, &tau, 11);
        // fragment sizes bound fragment diameter on a path
        let mut sizes: HashMap<u64, usize> = HashMap::new();
        for v in 0..g.n() {
            *sizes.entry(r.base_fragment_of[v]).or_insert(0) += 1;
        }
        let cap = 100f64.sqrt().ceil() as usize;
        for (&id, &s) in &sizes {
            // est-based cap allows a constant factor above √n
            assert!(s <= 8 * cap, "fragment {id} has size {s}, cap {cap}");
        }
    }
}
