//! Landmark-based approximate shortest-path trees — the \[BKKL17\]
//! substitute (see DESIGN.md §3).
//!
//! The paper uses the approximate SPT of Becker et al. \[BKKL17\], which
//! returns a tree `T_rt` with `d_G(rt,v) ≤ d_{T_rt}(rt,v) ≤ (1+ε)·
//! d_G(rt,v)` in `Õ(√n + D)/poly(ε)` rounds. We reproduce the same
//! interface with the classic landmark (hopset-flavoured) scheme:
//!
//! 1. sample `Θ(√n · log n)` landmarks from a broadcast seed (its own
//!    broadcast when [`SptConfig::landmarks`] forces the scheme, else
//!    the second word of the adaptive probe's verdict, below),
//! 2. run an `O(√n)`-hop bounded multi-source Bellman–Ford from
//!    `{rt} ∪ landmarks` (per-edge congestion charged by the simulator),
//! 3. gather the landmark-pairwise bounded distances to `rt` — keyed by
//!    *unordered* landmark pair through the combiner-aware
//!    [`collective::gather_merged`], so the two endpoints' reports of
//!    one pair merge in the tree and in flight — which solves the
//!    landmark graph *locally* and broadcasts each landmark's
//!    distance-from-root and predecessor landmark,
//! 4. every vertex combines `min(direct, landmark + bounded tail)` and
//!    inherits the corresponding Bellman–Ford parent, giving a genuine
//!    tree in `G` with `d_T(rt,v) ≤ est(v)`.
//!
//! Because every `≥ √n`-hop shortest path contains a landmark in each
//! `√n`-hop window w.h.p., the estimates are *exact* w.h.p.; the
//! optional `epsilon` knob quantizes the reported estimates upward to
//! emulate the (1+ε) slack of \[BKKL17\] and exercise downstream
//! tolerance (the tree itself stays consistent).
//!
//! # The adaptive landmark cutoff
//!
//! The landmark machinery exists for the regime where shortest paths
//! have more hops than an exploration may travel. On shallow instances
//! (every geometric family we sweep) the default `2⌈√n⌉` hop budget
//! *exceeds* the hop depth of every shortest path, and the whole
//! `Θ(√n log n)`-source exploration is wasted work — it was the
//! dominant message cost of SLT sweeps (see ROADMAP).
//!
//! The keyed-relaxation subsystem reports exactly the certificate
//! needed to detect this: if the root's own bounded exploration never
//! accepted an improvement with an exhausted hop budget
//! ([`congest::relax::RelaxTable::truncated`]), the bounded run is —
//! deterministically, not w.h.p. — identical to unbounded Bellman–Ford,
//! so its distances are exact and its parents form a genuine SPT.
//! [`approx_spt`] therefore first runs a root-only probe, sums the
//! truncation flags up τ (`O(D)` rounds, one message per τ edge) and
//! broadcasts the verdict with the landmark seed beside it; only a
//! *truncated* probe pays for the landmark scheme, and a certified one
//! sends no seed of its own. An explicit [`SptConfig::landmarks`] skips
//! the probe and forces the full scheme, with its own seed broadcast —
//! the deterministic ablation knob exposed through `engine::scenario`.

use crate::bellman::multi_source_bounded;
use congest::collective;
use congest::obs;
use congest::tree::BfsTree;
use congest::{pack2, unpack2, Executor, RunStats};
use lightgraph::{NodeId, Weight, INF};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Configuration for [`approx_spt`].
#[derive(Debug, Clone)]
pub struct SptConfig {
    /// Seed for landmark sampling (broadcast once: as its own item when
    /// `landmarks` forces the scheme, else inside the probe's verdict).
    pub seed: u64,
    /// Upward quantization of the reported estimates: estimates are
    /// multiplied by `(1 + epsilon)` and rounded up. `0.0` reports the
    /// raw (w.h.p. exact) values.
    pub epsilon: f64,
    /// Number of landmarks. `None` (the default) is **adaptive**: a
    /// root-only probe first checks whether the hop budget truncates
    /// anything at all, and the landmark scheme runs only if it does —
    /// with `⌈√n · ln n / 2⌉` landmarks. `Some(k)` forces the full
    /// scheme with exactly `k` landmarks and no probe (the ablation
    /// knob; `Some(0)` degenerates to a bounded exploration from the
    /// root alone).
    pub landmarks: Option<usize>,
    /// Hop bound of the bounded explorations; default `2⌈√n⌉`.
    pub hop_bound: Option<u64>,
}

impl SptConfig {
    /// Default configuration with the given seed.
    pub fn new(seed: u64) -> Self {
        SptConfig {
            seed,
            epsilon: 0.0,
            landmarks: None,
            hop_bound: None,
        }
    }
}

/// An approximate shortest-path tree rooted at `rt`.
#[derive(Debug, Clone)]
pub struct ApproxSpt {
    /// The root.
    pub root: NodeId,
    /// Distance estimates: `d_G(rt,v) ≤ dist[v]`, and w.h.p.
    /// `dist[v] ≤ (1+ε)·d_G(rt,v)` (exact — deterministically — when
    /// the adaptive probe certified the hop budget slack; see the
    /// module docs).
    pub dist: Vec<Weight>,
    /// Parent towards the root over real graph edges; the tree path
    /// from `v` has weight at most `dist[v]` (before quantization).
    pub parent: Vec<Option<NodeId>>,
    /// Rounds/messages of the construction.
    pub stats: RunStats,
}

impl ApproxSpt {
    /// The tree path `[rt, …, v]`.
    pub fn path_from_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Largest finite distance estimate — the (approximate) weighted
    /// eccentricity of the root. Headline metric for the `scenario`
    /// runner's `landmark` sweeps. See [`congest::relax::max_finite`]
    /// for the edge-case conventions (shared with
    /// [`crate::SsspResult::max_finite_dist`]).
    pub fn max_finite_dist(&self) -> Weight {
        crate::max_finite(&self.dist)
    }

    /// Edge ids of the tree (looked up in `g`), for building subgraphs.
    pub fn tree_edges(&self, g: &lightgraph::Graph) -> Vec<lightgraph::EdgeId> {
        (0..self.dist.len())
            .filter_map(|v| {
                let p = self.parent[v]?;
                g.neighbors(v)
                    .iter()
                    .find(|&&(u, _, _)| u == p)
                    .map(|&(_, _, e)| e)
            })
            .collect()
    }
}

fn quantize(d: Weight, epsilon: f64) -> Weight {
    if epsilon <= 0.0 || d == 0 || d >= INF {
        d
    } else {
        ((d as f64) * (1.0 + epsilon)).ceil() as Weight
    }
}

/// Builds an approximate SPT rooted at `rt` (see module docs).
///
/// Charged `O(hop_bound + #landmark-pairs + D)` rounds on the
/// simulator; with the default parameters this is `Õ(√n + D)` on the
/// instance families we evaluate. When the adaptive probe certifies
/// that the hop budget never truncates (module docs), the whole
/// landmark phase — the dominant message cost — is skipped and the
/// result is an exact SPT.
pub fn approx_spt<'g>(
    sim: &mut impl Executor<'g>,
    tau: &BfsTree,
    rt: NodeId,
    cfg: &SptConfig,
) -> ApproxSpt {
    let start = sim.total();
    let n = sim.graph().n();
    let sqrt_n = (n as f64).sqrt().ceil() as usize;
    let hop_bound = cfg.hop_bound.unwrap_or(2 * sqrt_n as u64).max(2);

    let mut dist = vec![INF; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut need_landmarks = true;

    if cfg.landmarks.is_some() {
        // (1) landmark-sampling seed broadcast (1 item, O(D) rounds).
        let (seed_recv, _) = obs::span(sim, "seed", |sim| {
            collective::broadcast(sim, tau, vec![(0, [cfg.seed, 0])])
        });
        debug_assert!(seed_recv.iter().all(|r| r.len() == 1));
    } else {
        // (2a) adaptive probe: root-only bounded exploration, then a
        // charged census of the truncation certificate (a count of the
        // truncated vertices summed up τ, the verdict broadcast down —
        // O(D) rounds, one message each way per τ edge). The verdict
        // item carries the landmark-sampling seed in its second word,
        // so a truncated probe has already handed every vertex the
        // seed of step (1).
        let (probe, truncated) = obs::span(sim, "probe", |sim| {
            let probe = multi_source_bounded(sim, &[rt], INF, hop_bound);
            let flags: Vec<u64> = probe.tables.iter().map(|t| t.truncated as u64).collect();
            let flags_ref = &flags;
            let (census, _) = collective::sum(sim, tau, |v| [flags_ref[v], 0]);
            let truncated = census[0] != 0;
            let (verdict, _) =
                collective::broadcast(sim, tau, vec![(0, [truncated as u64, cfg.seed])]);
            debug_assert!(verdict.iter().all(|r| r.len() == 1));
            (probe, truncated)
        });
        if !truncated {
            // Certificate holds: the bounded run equals unbounded
            // Bellman–Ford, so the probe is an exact SPT already.
            for (v, table) in probe.tables.iter().enumerate() {
                if let Some(slot) = table.get(0) {
                    dist[v] = slot.dist;
                    parent[v] = slot.parent();
                }
            }
            need_landmarks = false;
        }
    }

    if need_landmarks {
        let k = cfg
            .landmarks
            .unwrap_or_else(|| ((sqrt_n as f64) * (n.max(2) as f64).ln() / 2.0).ceil() as usize)
            .min(n);

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut pool: Vec<NodeId> = (0..n).filter(|&v| v != rt).collect();
        pool.shuffle(&mut rng);
        let mut sources: Vec<NodeId> = pool.into_iter().take(k).collect();
        sources.push(rt);
        sources.sort_unstable();

        // (2b) bounded multi-source exploration.
        let ms = multi_source_bounded(sim, &sources, INF, hop_bound);

        // (3) landmark graph to the root: gather the pairwise bounded
        // distances keyed by *unordered* source-index pair, min-merging
        // the two endpoints' reports in-tree and in-flight (the
        // combiner-aware gather), solve locally at rt, broadcast
        // (s, d*(rt,s), pred(s)).
        let idx: HashMap<NodeId, usize> = ms
            .sources
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        let idx_ref = &idx;
        let ms_ref = &ms;
        let (pairs, _) = obs::span(sim, "gather", |sim| {
            collective::gather_merged(sim, tau, |v| {
                if let Some(&vi) = idx_ref.get(&v) {
                    ms_ref.tables[v]
                        .iter_reached()
                        .filter(|&(si, _, _)| si != vi)
                        .map(|(si, d, _)| {
                            let (a, b) = if si < vi { (si, vi) } else { (vi, si) };
                            (pack2(a as u64, b as u64), [d, 0])
                        })
                        .collect()
                } else {
                    Vec::new()
                }
            })
        });
        // local Dijkstra over the landmark graph at rt (free)
        let s_count = ms.sources.len();
        let mut ladj: Vec<Vec<(usize, Weight)>> = vec![Vec::new(); s_count];
        for (&key, &val) in &pairs {
            let (a, b) = unpack2(key);
            debug_assert!(a < b, "unordered pair keys are canonical");
            ladj[a as usize].push((b as usize, val[0]));
            ladj[b as usize].push((a as usize, val[0]));
        }
        let rt_idx = idx[&rt];
        let mut ldist = vec![INF; s_count];
        let mut lpred: Vec<Option<usize>> = vec![None; s_count];
        let mut heap = std::collections::BinaryHeap::new();
        ldist[rt_idx] = 0;
        heap.push(std::cmp::Reverse((0, rt_idx)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > ldist[u] {
                continue;
            }
            for &(v, w) in &ladj[u] {
                let nd = d.saturating_add(w);
                if nd < ldist[v] {
                    ldist[v] = nd;
                    lpred[v] = Some(u);
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        let bcast: Vec<collective::Item> = (0..s_count)
            .filter(|&i| ldist[i] < INF)
            .map(|i| {
                (
                    ms.sources[i] as u64,
                    [
                        ldist[i],
                        lpred[i].map(|p| ms.sources[p] as u64).unwrap_or(u64::MAX),
                    ],
                )
            })
            .collect();
        let (recv, _) = obs::span(sim, "bcast", |sim| collective::broadcast(sim, tau, bcast));
        debug_assert!(recv.iter().all(|r| !r.is_empty()));

        // (4) local combination: every vertex picks its best estimate
        // and the corresponding Bellman–Ford parent. Landmarks
        // themselves use the predecessor landmark's exploration for
        // their parent, which keeps the parent pointers globally
        // consistent.
        let ldist_of = |s: NodeId| idx.get(&s).map(|&i| ldist[i]).unwrap_or(INF);

        for v in 0..n {
            if v == rt {
                dist[v] = 0;
                continue;
            }
            let mut best: (Weight, NodeId) = (INF, usize::MAX);
            for (s, d, _) in ms.reached(v) {
                // A landmark is its own best witness only via its
                // predecessor landmark (d = 0 would self-certify).
                if s == v {
                    continue;
                }
                let total = ldist_of(s).saturating_add(d);
                // Prefer strictly better totals; tie-break by landmark
                // id for determinism.
                if (total, s) < best {
                    best = (total, s);
                }
            }
            // Landmarks: route through the predecessor landmark.
            if let Some(&vi) = idx.get(&v) {
                if let Some(pl) = lpred[vi] {
                    let s = ms.sources[pl];
                    let via = ldist_of(s).saturating_add(ms.dist(s, v).unwrap_or(INF));
                    if (via, s) < best {
                        best = (via, s);
                    }
                }
            }
            if best.0 < INF {
                dist[v] = best.0;
                let best_key = idx[&best.1];
                parent[v] = ms.tables[v].parent(best_key);
                // the witness landmark itself is adjacent to v only
                // through the exploration parent; for v == neighbor of
                // source the parent may be the source itself (None only
                // at sources).
                if parent[v].is_none() {
                    // v *is* the witness landmark and d = 0; fall back
                    // to the predecessor-landmark exploration (handled
                    // above), or to the direct root exploration.
                    parent[v] = ms.tables[v].parent(rt_idx);
                }
            }
        }
    }

    let g = sim.graph();
    // Safety net: any vertex missed by every bounded exploration (can
    // happen on adversarially deep graphs with too few landmarks) falls
    // back to its BFS-tree parent with a pessimistic estimate, keeping
    // the output a spanning tree.
    for v in 0..n {
        if v != rt && (dist[v] >= INF || parent[v].is_none()) {
            let p = tau.parent[v].expect("tau spans the graph");
            parent[v] = Some(p);
            dist[v] = INF;
        }
    }
    // Re-propagate pessimistic estimates down tau (local).
    let mut order: Vec<NodeId> = (0..n).collect();
    order.sort_by_key(|&v| tau.depth[v]);
    for &v in &order {
        if v == rt {
            continue;
        }
        if dist[v] >= INF {
            let p = parent[v].expect("set above");
            let w = g
                .neighbors(v)
                .iter()
                .find(|&&(u, _, _)| u == p)
                .map(|&(_, w, _)| w)
                .unwrap_or(INF);
            dist[v] = dist[p].saturating_add(w);
        }
    }

    for d in &mut dist {
        *d = quantize(*d, cfg.epsilon);
    }

    let stats = sim.total().since(start);
    ApproxSpt {
        root: rt,
        dist,
        parent,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::tree::build_bfs_tree;
    use congest::Simulator;
    use lightgraph::{dijkstra, generators, Graph};

    fn tree_path_weight(g: &Graph, spt: &ApproxSpt, v: NodeId) -> Weight {
        let path = spt.path_from_root(v);
        path.windows(2)
            .map(|p| {
                g.neighbors(p[0])
                    .iter()
                    .find(|&&(u, _, _)| u == p[1])
                    .map(|&(_, w, _)| w)
                    .expect("tree uses real edges")
            })
            .sum()
    }

    fn check(g: &Graph, rt: NodeId, seed: u64, eps: f64) {
        let mut sim = Simulator::new(g);
        let (tau, _) = build_bfs_tree(&mut sim, rt);
        let cfg = SptConfig {
            epsilon: eps,
            ..SptConfig::new(seed)
        };
        let spt = approx_spt(&mut sim, &tau, rt, &cfg);
        let oracle = dijkstra::shortest_paths(g, rt);
        for v in 0..g.n() {
            assert!(
                spt.dist[v] >= oracle.dist[v],
                "estimate below true distance at {v}"
            );
            let slack = (1.0 + eps) * 1.0001;
            assert!(
                (spt.dist[v] as f64) <= (oracle.dist[v] as f64) * slack + 1.0,
                "estimate too large at {v}: {} vs {}",
                spt.dist[v],
                oracle.dist[v]
            );
            if v != rt {
                let pw = tree_path_weight(g, &spt, v);
                assert!(
                    pw <= spt.dist[v],
                    "tree path heavier than estimate at {v}: {pw} > {}",
                    spt.dist[v]
                );
                assert!(pw >= oracle.dist[v]);
            }
        }
    }

    #[test]
    fn exact_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi(60, 0.1, 40, seed);
            check(&g, 0, seed, 0.0);
        }
    }

    #[test]
    fn exact_on_structured_graphs() {
        check(&generators::path(50, 7), 0, 1, 0.0);
        check(&generators::grid(7, 7, 12, 2), 3, 2, 0.0);
        check(&generators::random_geometric(50, 0.3, 3), 5, 3, 0.0);
        check(&generators::caterpillar(12, 2, 4), 0, 4, 0.0);
    }

    #[test]
    fn quantized_estimates_respect_slack() {
        let g = generators::erdos_renyi(50, 0.12, 30, 5);
        check(&g, 0, 5, 0.25);
        check(&g, 0, 5, 1.0);
    }

    #[test]
    fn forced_landmark_mode_is_exact_too() {
        // `Some(k)` skips the adaptive probe and always pays for the
        // full landmark scheme — the ablation path must stay correct.
        let g = generators::erdos_renyi(60, 0.1, 40, 9);
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let cfg = SptConfig {
            landmarks: Some(25),
            ..SptConfig::new(9)
        };
        let spt = approx_spt(&mut sim, &tau, 0, &cfg);
        let oracle = dijkstra::shortest_paths(&g, 0);
        for v in 0..g.n() {
            assert!(spt.dist[v] >= oracle.dist[v]);
            if v != 0 {
                assert!(tree_path_weight(&g, &spt, v) >= oracle.dist[v]);
            }
        }
    }

    #[test]
    fn adaptive_probe_skips_landmarks_on_shallow_graphs() {
        // A shallow dense-ish graph: the 2⌈√n⌉ hop budget exceeds every
        // shortest path's hop count, so the probe certificate fires and
        // the landmark phase (the message hog) is skipped — visible as
        // far fewer messages than the forced path, with exact output.
        // The certified run is the probe's relaxation, the census and
        // the verdict (one message per τ edge each): the seed rides the
        // verdict, where the forced scheme broadcasts it on its own.
        let g = generators::erdos_renyi(80, 0.15, 20, 3);
        let tau_edges = g.n() as u64 - 1;
        let run = |landmarks: Option<usize>| {
            let mut sim = Simulator::new(&g);
            let (tau, _) = build_bfs_tree(&mut sim, 0);
            let cfg = SptConfig {
                landmarks,
                ..SptConfig::new(3)
            };
            obs::collect_spans(|| approx_spt(&mut sim, &tau, 0, &cfg))
        };
        let (adaptive, spans_adaptive) = run(None);
        let (forced, spans_forced) = run(Some(40));
        let oracle = dijkstra::shortest_paths(&g, 0);
        assert_eq!(adaptive.dist, oracle.dist, "certificate ⇒ exact");
        assert_eq!(forced.dist, oracle.dist, "forced scheme exact w.h.p.");
        assert!(
            adaptive.stats.messages < forced.stats.messages / 2,
            "the probe must skip the multi-source exploration \
             ({} vs {} messages)",
            adaptive.stats.messages,
            forced.stats.messages
        );
        assert!(spans_adaptive.find("seed").is_none(), "no seed broadcast");
        let relax = spans_adaptive.find("relax").expect("the probe relaxes");
        assert_eq!(
            adaptive.stats.messages,
            relax.stats.messages + 2 * tau_edges,
            "relaxation + census + verdict"
        );
        let seed = spans_forced.find("seed").expect("the forced scheme's seed");
        assert_eq!(seed.stats.messages, tau_edges);
    }

    #[test]
    fn few_landmarks_still_yield_valid_tree() {
        // With 0 extra landmarks the scheme degenerates to a bounded BF
        // from the root plus the BFS fallback — still a valid SPT
        // upper bound.
        let g = generators::path(40, 3);
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let cfg = SptConfig {
            landmarks: Some(0),
            hop_bound: Some(5),
            ..SptConfig::new(1)
        };
        let spt = approx_spt(&mut sim, &tau, 0, &cfg);
        let oracle = dijkstra::shortest_paths(&g, 0);
        for v in 0..g.n() {
            assert!(spt.dist[v] >= oracle.dist[v]);
            let pw = if v == 0 {
                0
            } else {
                tree_path_weight(&g, &spt, v)
            };
            assert!(pw < INF);
        }
    }

    #[test]
    fn exact_on_deep_weighted_paths_with_small_hop_diameter() {
        // The regime [BKKL17] targets: a light 200-hop path plus a hub
        // of heavy shortcuts, so D = 2 but shortest paths have ~200
        // hops. Exact BF would need ~200 rounds of *sequential* depth;
        // the landmark estimates must still be exact. The adaptive
        // probe must *not* fire here (the hop budget truncates), so
        // this also pins the full scheme end-to-end.
        let n = 201;
        let mut g = Graph::new(n + 1);
        for v in 1..n {
            g.add_edge(v - 1, v, 1).unwrap();
        }
        let hub = n;
        for v in 0..n {
            g.add_edge(hub, v, 1_000_000).unwrap();
        }
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        sim.reset_total();
        let spt = approx_spt(&mut sim, &tau, 0, &SptConfig::new(3));
        let oracle = dijkstra::shortest_paths(&g, 0);
        assert_eq!(spt.dist, oracle.dist, "landmarks must be exact w.h.p.");
        assert!(spt.stats.rounds > 0);
    }
}
