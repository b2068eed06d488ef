//! Distributed Least-Element lists (Cohen \[Coh97\]; the \[FL16\]
//! substitute — see DESIGN.md §3).
//!
//! Given a permutation π over an active set `A ⊆ V`, the LE list of `v`
//! is
//!
//! ```text
//! LE(v) = { (u, d(u,v)) : u ∈ A, no w ∈ A has d(v,w) ≤ d(v,u) and π(w) < π(u) }
//! ```
//!
//! i.e. `u` enters `v`'s list if it is first in π among all active
//! vertices within distance `d(v,u)` of `v`. Khan et al. \[KKM+12\] show
//! the lists have `O(log n)` entries w.h.p. over π.
//!
//! \[FL16\] compute the lists w.r.t. an auxiliary graph `H` with
//! `d_G ≤ d_H ≤ (1+δ)·d_G`; we reproduce that by an optional per-edge
//! weight stretch (each edge's `H`-weight is `w·(1 + δ·u(e))` for a
//! seed-hashed `u(e) ∈ [0,1]`), and compute the lists by distributed
//! Bellman–Ford-style relaxation of `(π(u), u, d)` triples: a triple
//! survives at `v` only while no known smaller-π vertex is at least as
//! close, and only surviving triples propagate. A distance bound keeps
//! the computation local, which is all §6 needs (the net test only
//! inspects the list up to distance ∆).
//!
//! The wire format and the clause-7 combiner come from the shared
//! keyed-relaxation subsystem ([`congest::relax`]): triples travel as
//! canonical `(key = origin vertex, dist, aux = rank)` messages and
//! merge by the subsystem's componentwise minimum (the rank is a pure
//! function of the vertex, so equal per key — the minimum keeps it).
//! Unlike the Bellman–Ford family, the *table* is not the dense
//! [`congest::relax::KeyedRelaxation`]: the key space is all of `V`,
//! and it is exactly the π-domination filter that keeps LE state and
//! traffic at `O(log n)` per node — a dense per-origin table would be
//! Θ(n) per node and defeat the lists' point. The domination list
//! stays; everything message-shaped is the subsystem's.

use congest::collective;
use congest::relax::{self, RelaxMsg};
use congest::tree::BfsTree;
use congest::{Ctx, Executor, Message, Program, RunStats, Word};
use lightgraph::{splitmix64, NodeId, Weight};
use std::collections::HashMap;

const TAG_LE: u64 = 30;

/// The computed LE lists.
#[derive(Debug, Clone)]
pub struct LeLists {
    /// `lists[v]` = `(u, d_H(u,v))` entries sorted by increasing
    /// distance (π strictly decreases along the list). Inactive `v`
    /// still have lists (they observe active vertices around them).
    pub lists: Vec<Vec<(NodeId, Weight)>>,
    /// The permutation rank of every vertex (lower = earlier in π).
    pub rank: Vec<u64>,
    /// Rounds/messages of the computation.
    pub stats: RunStats,
}

impl LeLists {
    /// The first vertex in π within distance `r` of `v` (w.r.t. the
    /// auxiliary weights), if any active vertex is that close: the
    /// entry with the largest distance `≤ r`.
    pub fn first_within(&self, v: NodeId, r: Weight) -> Option<NodeId> {
        self.lists[v]
            .iter()
            .take_while(|&&(_, d)| d <= r)
            .last()
            .map(|&(u, _)| u)
    }

    /// Whether `v` itself is the π-minimum of its `r`-ball — the §6 net
    /// joining test.
    pub fn is_local_minimum(&self, v: NodeId, r: Weight) -> bool {
        self.first_within(v, r) == Some(v)
    }
}

/// One entry in the working list: (rank, vertex, distance).
type Entry = (u64, NodeId, Weight);

struct LeProgram {
    active: bool,
    rank: u64,
    bound: Weight,
    /// H-weights of incident edges, by neighbor.
    weights: HashMap<NodeId, Weight>,
    /// Non-dominated entries.
    list: Vec<Entry>,
}

impl LeProgram {
    /// Inserts if not dominated; returns true if the list changed.
    /// `e = (rank, vertex, dist)` is dominated if some entry has both
    /// smaller-or-equal rank and smaller-or-equal distance (with one
    /// strict, or equal vertex).
    fn offer(&mut self, e: Entry) -> bool {
        let (rk, u, d) = e;
        if d > self.bound {
            return false;
        }
        for &(rk2, u2, d2) in &self.list {
            if u2 == u && d2 <= d {
                return false;
            }
            if rk2 < rk && d2 <= d {
                return false;
            }
            debug_assert!(!(rk2 == rk && u2 != u), "permutation ranks collide");
        }
        // Drop entries the newcomer dominates: same vertex at a larger
        // distance, or smaller rank at most as far.
        self.list
            .retain(|&(rk2, u2, d2)| !(u2 == u || (rk < rk2 && d <= d2)));
        self.list.push(e);
        true
    }
}

impl LeProgram {
    /// The canonical wire form of an entry (subsystem codec: key =
    /// origin vertex, aux = permutation rank).
    fn encode(entry: Entry) -> Message {
        let (rk, u, d) = entry;
        RelaxMsg {
            key: u as u64,
            dist: d,
            aux: rk,
        }
        .encode(TAG_LE)
    }
}

impl Program for LeProgram {
    type Output = Vec<Entry>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if self.active {
            let me = (self.rank, ctx.node(), 0);
            self.offer(me);
            ctx.send_all(Self::encode(me));
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        let mut fresh: Vec<Entry> = Vec::new();
        for (from, msg) in inbox {
            let m = RelaxMsg::decode(TAG_LE, msg);
            let w = *self.weights.get(from).expect("sender is a neighbor");
            let e = (m.aux, m.key as NodeId, m.dist.saturating_add(w));
            if self.offer(e) {
                fresh.push(e);
            }
        }
        for e in fresh {
            ctx.send_all(Self::encode(e));
        }
    }

    /// Per-edge combiner (contract clause 7), straight from the
    /// subsystem: triples for the same origin vertex supersede each
    /// other (the rank is a function of the vertex), so co-queued ones
    /// collapse to the componentwise minimum — minimum distance, same
    /// rank. The LE list is the order-independent non-dominated fixed
    /// point, so delivering only the dominating triple leaves outputs
    /// untouched.
    fn combine_key(&self, msg: &Message) -> Option<Word> {
        Some(relax::combine_key(msg))
    }

    fn combine(&self, queued: &Message, incoming: &Message) -> Message {
        relax::combine_min(queued, incoming)
    }

    fn finish(mut self) -> Self::Output {
        self.list.sort_by_key(|&(_, _, d)| d);
        self.list
    }
}

/// Computes LE lists for the `active` vertices, up to distance `bound`.
///
/// A permutation seed is broadcast from the root of `tau` (`O(D)`), then
/// every vertex derives its rank locally; relaxation proceeds until
/// quiescence. `delta` stretches each edge weight by a hash-random
/// factor in `[1, 1+delta]`, realizing the auxiliary graph `H` of
/// \[FL16\] with `d_G ≤ d_H ≤ (1+δ)·d_G`.
pub fn le_lists<'g>(
    sim: &mut impl Executor<'g>,
    tau: &BfsTree,
    active: &[bool],
    bound: Weight,
    delta: f64,
    seed: u64,
) -> LeLists {
    let start = sim.total();
    let g = sim.graph();
    let n = g.n();
    assert_eq!(active.len(), n);

    let (seed_recv, _) = collective::broadcast(sim, tau, vec![(0, [seed, 0])]);
    debug_assert!(seed_recv.iter().all(|r| r.len() == 1));

    // Rank = (hash, id) flattened into one word: hash in the high bits,
    // id in the low bits, so ranks never collide.
    let rank: Vec<u64> = (0..n)
        .map(|v| ((splitmix64(seed ^ v as u64) >> 32) << 32) | v as u64)
        .collect();

    let h_weight = |e: lightgraph::EdgeId, w: Weight| -> Weight {
        if delta <= 0.0 {
            w
        } else {
            let u = (splitmix64(seed ^ 0xabcd ^ e as u64) % 1_000_000) as f64 / 1_000_000.0;
            ((w as f64) * (1.0 + delta * u)).ceil() as Weight
        }
    };

    let (lists, _) = sim.run(|v, graph| LeProgram {
        active: active[v],
        rank: rank[v],
        bound,
        weights: graph
            .neighbors(v)
            .iter()
            .map(|&(u, w, e)| (u, h_weight(e, w)))
            .collect(),
        list: Vec::new(),
    });

    let stats = sim.total().since(start);
    LeLists {
        lists: lists
            .into_iter()
            .map(|l| l.into_iter().map(|(_, u, d)| (u, d)).collect())
            .collect(),
        rank,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::tree::build_bfs_tree;
    use congest::Simulator;
    use lightgraph::{dijkstra, generators, INF};

    /// Sequential oracle: brute-force LE lists from all-pairs distances.
    fn oracle_lists(
        g: &lightgraph::Graph,
        active: &[bool],
        rank: &[u64],
        bound: Weight,
    ) -> Vec<Vec<(NodeId, Weight)>> {
        let ap = dijkstra::all_pairs(g);
        (0..g.n())
            .map(|v| {
                let mut entries: Vec<(NodeId, Weight)> = Vec::new();
                for u in 0..g.n() {
                    if !active[u] || ap[v][u] > bound || ap[v][u] >= INF {
                        continue;
                    }
                    let dominated =
                        (0..g.n()).any(|w| active[w] && ap[v][w] <= ap[v][u] && rank[w] < rank[u]);
                    if !dominated {
                        entries.push((u, ap[v][u]));
                    }
                }
                entries.sort_by_key(|&(u, d)| (d, u));
                entries
            })
            .collect()
    }

    #[test]
    fn matches_bruteforce_oracle() {
        for seed in 0..3 {
            let g = generators::erdos_renyi(30, 0.15, 20, seed);
            let active = vec![true; g.n()];
            let mut sim = Simulator::new(&g);
            let (tau, _) = build_bfs_tree(&mut sim, 0);
            let le = le_lists(&mut sim, &tau, &active, INF, 0.0, seed);
            let oracle = oracle_lists(&g, &active, &le.rank, INF);
            assert_eq!(le.lists, oracle, "seed {seed}");
        }
    }

    #[test]
    fn respects_active_set_and_bound() {
        let g = generators::path(12, 5);
        let mut active = vec![false; 12];
        active[0] = true;
        active[6] = true;
        active[11] = true;
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let bound = 20; // 4 hops
        let le = le_lists(&mut sim, &tau, &active, bound, 0.0, 7);
        let oracle = oracle_lists(&g, &active, &le.rank, bound);
        assert_eq!(le.lists, oracle);
        // vertex 3 sees only 0 and 6 (both within 20), vertex 11 sees
        // itself; no inactive vertex ever appears
        for l in &le.lists {
            for &(u, _) in l {
                assert!(active[u]);
            }
        }
    }

    #[test]
    fn list_sizes_are_logarithmic() {
        let g = generators::erdos_renyi(120, 0.05, 50, 9);
        let active = vec![true; g.n()];
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let le = le_lists(&mut sim, &tau, &active, INF, 0.0, 9);
        let max_len = le.lists.iter().map(Vec::len).max().unwrap();
        // O(log n) w.h.p.; allow a generous constant
        assert!(max_len <= 4 * 7, "LE list too long: {max_len}");
    }

    #[test]
    fn first_within_and_local_minimum() {
        let g = generators::erdos_renyi(40, 0.12, 25, 11);
        let active = vec![true; g.n()];
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let le = le_lists(&mut sim, &tau, &active, INF, 0.0, 11);
        let ap = dijkstra::all_pairs(&g);
        let r = 30;
        for v in 0..g.n() {
            let expect = (0..g.n())
                .filter(|&u| ap[v][u] <= r)
                .min_by_key(|&u| le.rank[u]);
            assert_eq!(le.first_within(v, r), expect, "vertex {v}");
            assert_eq!(le.is_local_minimum(v, r), expect == Some(v));
        }
    }

    #[test]
    fn stretched_weights_stay_within_delta() {
        let g = generators::erdos_renyi(30, 0.2, 20, 13);
        let active = vec![true; g.n()];
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let delta = 0.5;
        let le = le_lists(&mut sim, &tau, &active, INF, delta, 13);
        let ap = dijkstra::all_pairs(&g);
        for v in 0..g.n() {
            for &(u, d) in &le.lists[v] {
                assert!(d >= ap[v][u], "H must not shorten distances");
                assert!(
                    (d as f64) <= (ap[v][u] as f64) * (1.0 + delta) + 1.5,
                    "H distance exceeds (1+δ): {} vs {}",
                    d,
                    ap[v][u]
                );
            }
        }
    }
}
