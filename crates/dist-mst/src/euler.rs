//! The distributed Euler tour of the MST (§3, Lemma 2).
//!
//! Given the base-fragment structure produced by
//! [`crate::boruvka::distributed_mst`], computes the preorder traversal
//! `L = {rt = x_0, x_1, …, x_{2n-2}}` of the MST: every vertex learns its
//! set of appearances `L(v)` with both the *index* and the *weighted
//! visit time* `R_x` of each appearance. Children are ordered by vertex
//! id, exactly like the sequential reference
//! [`lightgraph::tree::RootedTree::euler_tour`].
//!
//! The implementation follows §3.1–3.3, with the fragment-tree
//! recurrences *batch-contracted at `rt`* instead of broadcast to (and
//! replayed by) every vertex:
//!
//! 1. gather the external edges to `rt` through the combiner-aware
//!    convergecast and assemble the fragment tree `T′` there, in dense
//!    compact-index tables — `O(√n + D)` rounds, `O(√n · D)` messages
//!    where the old global broadcast paid `O(√n · n)`,
//! 2. re-root each base fragment at its root `r_i` (designated by a
//!    [`congest::collective::downcast`] along BFS-tree paths),
//! 3. *local tour lengths* `ℓ(v)` by a bottom-up fragment pass,
//! 4. gather `{ℓ(r_i)}` to `rt`, contract the `g`-recurrence over `T′`
//!    bottom-up in one batch, and downcast to each *attach vertex* the
//!    `g`-value of the fragments hanging off it,
//! 5. *global tour lengths* `g(v)` by a second bottom-up pass seeded
//!    with the external children's `g`-values,
//! 6. DFS *intervals* by a top-down fragment pass (child-fragment roots
//!    receive their interval inside the parent fragment but do not
//!    propagate it),
//! 7. shifts `s_i`: root-interval starts gather to `rt`, the shift
//!    recursion `s_i = s_{parent} + b_i` — the sequential pointer chase
//!    up `T′` — is contracted in one batched sweep, and each fragment's
//!    shift returns by downcast to `r_i` plus an intra-fragment flood,
//! 8. every vertex locally derives all its appearances.
//!
//! The paper gets the tour *indices* by "running the same algorithm that
//! finds visiting times, ignoring the weights". Steps 3–7 run that
//! second, unit-weight instance in the same messages as the first: every
//! value carries the weighted quantity in word 0 and the unit-weight one
//! in word 1, so the indices cost no extra message or round.

use crate::boruvka::MstResult;
use crate::passes::{self, FragView, Val};
use congest::collective;
use congest::obs;
use congest::tree::BfsTree;
use congest::{pack2, unpack2, Executor, RunStats};
use lightgraph::{EdgeId, Graph, NodeId, Weight};
use std::collections::VecDeque;

/// The distributed Euler tour: per-vertex appearances in `L`.
#[derive(Debug, Clone)]
pub struct DistEulerTour {
    /// `appearances[v]` = the positions and weighted visit times of `v`
    /// in `L`, sorted by position (the set `L(v)` with times `R_x`).
    pub appearances: Vec<Vec<(usize, Weight)>>,
    /// Total weighted tour length (`2 · w(MST)`).
    pub total_length: Weight,
    /// Rounds/messages spent computing the tour (excluding the MST).
    pub stats: RunStats,
}

impl DistEulerTour {
    /// Reassembles the full tour sequence `L` (positions → vertices and
    /// visit times) — a *global* view used by tests and experiments, not
    /// available to any single vertex in the real model.
    pub fn assemble(&self) -> (Vec<NodeId>, Vec<Weight>) {
        let total: usize = self.appearances.iter().map(Vec::len).sum();
        let mut seq = vec![usize::MAX; total];
        let mut times = vec![0; total];
        for (v, apps) in self.appearances.iter().enumerate() {
            for &(i, t) in apps {
                seq[i] = v;
                times[i] = t;
            }
        }
        assert!(seq.iter().all(|&v| v != usize::MAX), "tour has holes");
        (seq, times)
    }
}

/// The fragment tree `T′`, assembled **at `rt` only** from the merged
/// gather of external edges, in dense tables keyed by a *compact
/// fragment index* assigned in BFS (root-to-leaf) discovery order — so
/// `parent[i] < i`, a forward scan is top-down, and a reverse scan is
/// bottom-up. Fragment ids are leader vertex ids, so the id → index map
/// is a plain `Vec` over vertex ids (no `HashMap` on the hot path).
struct FragTree {
    /// Fragment id (= phase-1 leader vertex) per compact index.
    ids: Vec<u64>,
    /// Compact index per fragment id (`usize::MAX` for non-ids).
    idx_of: Vec<usize>,
    /// Root vertex `r_i` per compact index (`rt` for index 0).
    root_of: Vec<NodeId>,
    /// Parent fragment per compact index (`None` only for index 0).
    parent: Vec<Option<usize>>,
    /// Child fragments per compact index.
    children: Vec<Vec<usize>>,
    /// Attach vertex (the endpoint of the external edge inside the
    /// parent fragment) per compact index (`rt` itself for index 0).
    attach_of: Vec<NodeId>,
}

impl FragTree {
    fn len(&self) -> usize {
        self.ids.len()
    }
}

/// Step 1: converge the external edges to `rt` (unique `(edge, side)`
/// keys, so the eager min-merge is trivially lawful) and assemble `T′`
/// there. Nothing is broadcast — per-fragment answers later return by
/// targeted downcasts.
fn gather_fragment_tree<'g>(
    sim: &mut impl Executor<'g>,
    g: &Graph,
    tau: &BfsTree,
    mst: &MstResult,
    rt: NodeId,
) -> FragTree {
    let frag = &mst.base_fragment_of;
    let mut is_ext = vec![false; g.m()];
    for &e in &mst.external_edges {
        is_ext[e] = true;
    }
    // Each endpoint of an external edge contributes (fragment, vertex),
    // keyed by (edge, side); 2 items per edge, ≤ 2√n total.
    let (table, _) = collective::gather_merged(sim, tau, |v| {
        let mut out: Vec<collective::Item> = Vec::new();
        for &(u, _, e) in g.neighbors(v) {
            if is_ext[e] {
                let side = u64::from(v > u);
                out.push((pack2(e as u64, side), [frag[v], v as u64]));
            }
        }
        out
    });

    // rt-local assembly. Keys sort as (edge, side), so the two sides of
    // an edge are adjacent.
    let flat: Vec<collective::Item> = table.iter().map(|(&k, &v)| (k, v)).collect();
    assert!(flat.len().is_multiple_of(2), "external edge reported once");
    let edges: Vec<(EdgeId, (u64, NodeId), (u64, NodeId))> = flat
        .chunks(2)
        .map(|pair| {
            let (k0, v0) = pair[0];
            let (k1, v1) = pair[1];
            let (e0, s0) = unpack2(k0);
            let (e1, s1) = unpack2(k1);
            assert!(
                e0 == e1 && s0 == 0 && s1 == 1,
                "external edge reported once"
            );
            (
                e0 as EdgeId,
                (v0[0], v0[1] as NodeId),
                (v1[0], v1[1] as NodeId),
            )
        })
        .collect();

    let n = g.n();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n]; // by fragment id
    for (i, &(_, (fa, _), (fb, _))) in edges.iter().enumerate() {
        adj[fa as usize].push(i);
        adj[fb as usize].push(i);
    }
    let root_frag = frag[rt];
    let mut ft = FragTree {
        ids: vec![root_frag],
        idx_of: vec![usize::MAX; n],
        root_of: vec![rt],
        parent: vec![None],
        children: vec![Vec::new()],
        attach_of: vec![rt],
    };
    ft.idx_of[root_frag as usize] = 0;
    let mut queue = VecDeque::from([0usize]);
    while let Some(fi) = queue.pop_front() {
        let fid = ft.ids[fi];
        for &i in &adj[fid as usize] {
            let (_, (fa, va), (fb, vb)) = edges[i];
            let (cf, cv, attach) = if fa == fid {
                (fb, vb, va)
            } else {
                (fa, va, vb)
            };
            if ft.idx_of[cf as usize] == usize::MAX {
                let ci = ft.len();
                ft.idx_of[cf as usize] = ci;
                ft.ids.push(cf);
                ft.root_of.push(cv);
                ft.parent.push(Some(fi));
                ft.children.push(Vec::new());
                ft.attach_of.push(attach);
                ft.children[fi].push(ci);
                queue.push_back(ci);
            }
        }
    }
    assert_eq!(ft.len(), mst.fragment_count(), "T′ must span all fragments");
    ft
}

/// Steps 3–8, once for both weight functions: word 0 of every pass
/// value, gather item and downcast item carries the edge-weighted
/// quantity (visit times), word 1 the unit-weight one (tour indices; the
/// paper's "same algorithm … ignoring the weights"). Returns each
/// vertex's appearances `(index, visit time)` in traversal order, which
/// is index order.
fn tour_times<'g>(
    sim: &mut impl Executor<'g>,
    tau: &BfsTree,
    views: &[FragView],
    ft: &FragTree,
    frag: &[u64],
) -> Vec<Vec<(usize, Weight)>> {
    let g = sim.graph();
    let n = views.len();
    let f_count = ft.len();
    let wf = |a: NodeId, b: NodeId| -> Weight { g.edge_between(a, b).expect("tree edge exists").0 };
    let add = |a: Val, b: Val| [a[0] + b[0], a[1] + b[1], 0];
    // a child's value to its parent gains twice the parent edge: its
    // weight in word 0, one hop in word 1
    let up_edge = |v: NodeId| {
        let wp = views[v].parent.map_or(0, |p| 2 * wf(v, p));
        move |val: Val| [val[0] + wp, val[1] + 2, 0]
    };

    // (3) local tour lengths ℓ(v): child sends ℓ(child) + 2·w(child, v).
    let (ell, _) = passes::up_pass_full(sim, views, |_| [0, 0, 0], add, up_edge);

    // (4) gather {ℓ(r_i)} to rt (unique fragment-id keys); contract the
    // g-recurrence bottom-up over the dense T′ in one batch, and hand
    // each attach vertex the g-values and root of the fragments hanging
    // off it. The index g is at most 2(n − 1), so it packs with the
    // root into one word.
    let (ltable, _) = collective::gather_merged(sim, tau, |v| {
        if views[v].parent.is_none() {
            vec![(frag[v], [ell[v].0[0], ell[v].0[1]])]
        } else {
            Vec::new()
        }
    });
    let mut g_root: Vec<[Weight; 2]> = vec![[0, 0]; f_count];
    for fi in (0..f_count).rev() {
        let mut total = ltable[&ft.ids[fi]];
        for &ci in &ft.children[fi] {
            // the external edge between a fragment's root and its
            // attach vertex
            total[0] += g_root[ci][0] + 2 * wf(ft.attach_of[ci], ft.root_of[ci]);
            total[1] += g_root[ci][1] + 2;
        }
        g_root[fi] = total;
    }
    let g_items: Vec<(NodeId, collective::Item)> = (1..f_count)
        .map(|ci| {
            let [gw, gi] = g_root[ci];
            (
                ft.attach_of[ci],
                (ft.ids[ci], [gw, pack2(gi, ft.root_of[ci] as u64)]),
            )
        })
        .collect();
    // ext[v]: the external children of v as (child frag id, [g, (g index,
    // root)]).
    let (ext, _) = collective::downcast(sim, tau, g_items);
    // (child root, m = [g + 2w, g index + 2], w) per external child
    let ext_children = |v: NodeId| {
        ext[v].iter().map(move |&(_, [gw, packed])| {
            let (gi, croot) = unpack2(packed);
            let croot = croot as NodeId;
            let w = wf(v, croot);
            (croot, [gw + 2 * w, gi + 2, 0], w)
        })
    };

    // (5) global tour lengths g(v).
    let (gvals, _) = passes::up_pass_full(
        sim,
        views,
        |v| ext_children(v).fold([0, 0, 0], |acc, (_, m, _)| add(acc, m)),
        add,
        up_edge,
    );
    for v in 0..n {
        if views[v].parent.is_none() {
            debug_assert_eq!(
                [gvals[v].0[0], gvals[v].0[1]],
                g_root[ft.idx_of[frag[v] as usize]],
                "distributed g(r_i) disagrees with the contracted T′ computation"
            );
        }
    }

    // T-children of every vertex in id order with m = [g(child) + 2w,
    // g index(child) + 2] and the edge weight w.
    let mut t_children: Vec<Vec<(NodeId, Val, Weight)>> = vec![Vec::new(); n];
    for v in 0..n {
        for &(child, m) in &gvals[v].1 {
            t_children[v].push((child, m, wf(v, child)));
        }
        t_children[v].extend(ext_children(v));
        t_children[v].sort_by_key(|&(c, _, _)| c);
    }

    // (6) interval starts: top-down, fragment-relative; external
    // children receive (over the external edge) their interval inside
    // the parent fragment but do not propagate it.
    let (starts, _) = passes::down_pass(
        sim,
        views,
        |_| [0, 0, 0],
        |v| {
            let ch = &t_children[v];
            move |_, mut acc: Val| {
                let mut out = Vec::with_capacity(ch.len());
                for &(c, m, w) in ch {
                    out.push((c, add(acc, [w, 1, 0])));
                    acc = add(acc, m);
                }
                out
            }
        },
    );

    // (7) shifts: fragment roots report the start of their interval in
    // the parent fragment; rt contracts the shift recursion
    // s_i = s_parent + b_i in one top-down batch (parent-before-child by
    // compact-index order) and downcasts each fragment's shift to its
    // root; an intra-fragment flood spreads it.
    let (btable, _) = collective::gather_merged(sim, tau, |v| {
        if views[v].parent.is_none() && starts[v].len() > 1 {
            vec![(frag[v], [starts[v][1][0], starts[v][1][1]])]
        } else {
            Vec::new()
        }
    });
    let mut shift: Vec<[Weight; 2]> = vec![[0, 0]; f_count];
    for fi in 1..f_count {
        let [sw, si] = shift[ft.parent[fi].expect("non-root fragment")];
        let [bw, bi] = btable[&ft.ids[fi]];
        shift[fi] = [sw + bw, si + bi];
    }
    let shift_items: Vec<(NodeId, collective::Item)> = (0..f_count)
        .map(|fi| (ft.root_of[fi], (ft.ids[fi], shift[fi])))
        .collect();
    let (shift_recv, _) = collective::downcast(sim, tau, shift_items);
    let shift_recv_ref = &shift_recv;
    let (flooded, _) = passes::flood_pass(sim, views, |v| {
        // only evaluated at fragment roots, each of which received its
        // shift (index-0's rt designation was a free local delivery)
        let [sw, si] = shift_recv_ref[v].first().map_or([0, 0], |&(_, s)| s);
        [sw, si, 0]
    });

    // (8) local appearances: entry, then one after each child's
    // subtree.
    (0..n)
        .map(|v| {
            let mut t = add(flooded[v].expect("flood reaches all"), starts[v][0]);
            let mut out = Vec::with_capacity(t_children[v].len() + 1);
            out.push((t[1] as usize, t[0]));
            for &(_, m, _) in &t_children[v] {
                t = add(t, m);
                out.push((t[1] as usize, t[0]));
            }
            out
        })
        .collect()
}

/// Computes the distributed Euler tour of the MST rooted at `rt`
/// (Lemma 2: `Õ(√n + D)` rounds given the fragment structure).
///
/// `mst` must come from [`crate::boruvka::distributed_mst`] on the same
/// graph; `tau` is the shared BFS tree.
///
/// Deterministic under the `congest::exec` engine contract: the same
/// appearances and `RunStats` on the simulator and the parallel engine
/// (property-tested in `crates/engine/tests/equivalence.rs`), which is
/// what lets the `scenario` runner sweep `euler` on either engine.
pub fn distributed_euler_tour<'g>(
    sim: &mut impl Executor<'g>,
    tau: &BfsTree,
    mst: &MstResult,
    rt: NodeId,
) -> DistEulerTour {
    let start = sim.total();
    let g = sim.graph();
    let n = g.n();
    if n == 0 {
        return DistEulerTour {
            appearances: Vec::new(),
            total_length: 0,
            stats: RunStats::default(),
        };
    }

    // (1) gather + contract T′ at rt.
    let ft = obs::span(sim, "frag_tree", |sim| {
        gather_fragment_tree(sim, g, tau, mst, rt)
    });
    let frag = &mst.base_fragment_of;

    // (2) designate the r_i by downcast, then re-root base fragments.
    let root_items: Vec<(NodeId, collective::Item)> = ft
        .root_of
        .iter()
        .zip(&ft.ids)
        .map(|(&r, &id)| (r, (id, [1, 0])))
        .collect();
    let (adopted, _) = obs::span(sim, "reroot", |sim| {
        let (desig, _) = collective::downcast(sim, tau, root_items);
        passes::reroot(sim, &mst.base_views, |v| {
            (!desig[v].is_empty()).then_some(([0; 3], None))
        })
    });
    let views: Vec<FragView> = mst
        .base_views
        .iter()
        .zip(adopted)
        .map(|(view, adopted)| FragView {
            parent: adopted.and_then(|(_, parent)| parent),
            tree_neighbors: view.tree_neighbors.clone(),
        })
        .collect();

    // (3–8) one pass carries the visit times and the indices together.
    let appearances = obs::span(sim, "times", |sim| tour_times(sim, tau, &views, &ft, frag));
    let total_length = appearances
        .iter()
        .flatten()
        .map(|&(_, t)| t)
        .max()
        .unwrap_or(0);

    let stats = sim.total().since(start);
    DistEulerTour {
        appearances,
        total_length,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boruvka::distributed_mst;
    use congest::tree::build_bfs_tree;
    use congest::Simulator;
    use lightgraph::tree::RootedTree;
    use lightgraph::{generators, Graph};

    fn check_tour(g: &Graph, rt: NodeId, seed: u64) -> DistEulerTour {
        let mut sim = Simulator::new(g);
        let (tau, _) = build_bfs_tree(&mut sim, rt);
        let mst = distributed_mst(&mut sim, &tau, seed);
        let tour = distributed_euler_tour(&mut sim, &tau, &mst, rt);
        // sequential reference on the same (unique) MST
        let t = RootedTree::from_edge_ids(g, &mst.mst_edges, rt);
        let reference = t.euler_tour();
        let (seq, times) = tour.assemble();
        assert_eq!(seq, reference.seq, "tour sequence mismatch");
        assert_eq!(times, reference.times, "tour times mismatch");
        assert_eq!(tour.total_length, 2 * mst.weight);
        tour
    }

    #[test]
    fn tour_matches_sequential_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi(50, 0.1, 30, seed);
            check_tour(&g, 0, seed);
        }
    }

    #[test]
    fn tour_matches_on_structured_graphs() {
        check_tour(&generators::path(30, 4), 0, 1);
        check_tour(&generators::star(20, 9, 2), 0, 2);
        check_tour(&generators::grid(6, 7, 15, 3), 5, 3);
        check_tour(&generators::random_geometric(40, 0.3, 4), 7, 4);
        check_tour(&generators::caterpillar(10, 2, 5), 3, 5);
    }

    #[test]
    fn tour_of_tiny_graphs() {
        check_tour(&Graph::from_edges(2, [(0, 1, 5)]).unwrap(), 0, 0);
        check_tour(&Graph::from_edges(3, [(0, 1, 2), (1, 2, 3)]).unwrap(), 1, 0);
    }

    #[test]
    fn every_vertex_knows_only_its_own_appearances() {
        let g = generators::erdos_renyi(40, 0.12, 25, 5);
        let tour = check_tour(&g, 0, 5);
        let t: usize = tour.appearances.iter().map(Vec::len).sum();
        assert_eq!(t, 2 * g.n() - 1);
        for apps in &tour.appearances {
            for w in apps.windows(2) {
                assert!(w[0].0 < w[1].0, "appearances must be sorted and distinct");
            }
        }
    }

    #[test]
    fn paper_worked_example_lengths() {
        // Figure 1's invariants on a concrete instance: with unit
        // weights, ℓ(r_1) of the whole tree as one fragment is 2(n-1)
        // and g values decompose along fragments. We verify the
        // distributed g(rt) equals twice the MST weight on a unit path.
        let g = generators::path(12, 1);
        let tour = check_tour(&g, 0, 7);
        assert_eq!(tour.total_length, 2 * 11);
    }

    #[test]
    fn tour_transport_beats_the_broadcast_wall() {
        // The contracted transport must scale like O(n + F·D), not the
        // O(F·n) the broadcast-everything version paid: on a 200-vertex
        // geometric graph the tour must spend well under n per fragment.
        // Visit times and indices share every message of steps 3–7, so
        // the tour is three spans and one pass.
        let g = generators::random_geometric(200, 0.12, 8);
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let mst = distributed_mst(&mut sim, &tau, 8);
        let f = mst.fragment_count() as u64;
        let (tour, spans) = obs::collect_spans(|| distributed_euler_tour(&mut sim, &tau, &mst, 0));
        assert!(f > 2, "test needs a multi-fragment instance, got {f}");
        let delivered = tour.stats.messages_delivered();
        let n = g.n() as u64;
        assert!(
            delivered < f * n,
            "tour transport not contracted: {delivered} deliveries ≥ F·n = {}",
            f * n
        );
        let names: Vec<&str> = spans.roots.iter().map(|s| s.name).collect();
        assert_eq!(names, ["frag_tree", "reroot", "times"]);
        assert!(spans.roots.iter().all(|s| s.children.is_empty()));
        // A separate unit-weight pass for the indices would cost
        // (246, 2436) here.
        assert_eq!((tour.stats.rounds, tour.stats.messages), (144, 1412));
    }
}
