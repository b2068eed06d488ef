//! Light spanners for general graphs (§5, Theorem 2).
//!
//! The spanner is a union over `O(log n)` weight buckets:
//!
//! * `E′` (edges of weight `≤ L/n`, `L = 2·w(MST)`): the distributed
//!   Baswana–Sen spanner — the bucket is so light that sparsity alone
//!   bounds its weight,
//! * bucket `E_i` (weights in `(L/(1+ε)^{i+1}, L/(1+ε)^i]`): the graph
//!   is partitioned into clusters of weak diameter `ε·w_i` using the
//!   Euler tour of the MST, and the Elkin–Neiman unweighted spanner
//!   \[EN17b\] is *simulated on the cluster graph* `G_i` whose vertices
//!   are clusters and whose edges come from `E_i`,
//! * plus the MST itself.
//!
//! The simulation has two regimes, exactly as in §5:
//!
//! * **Case 1** (few clusters, `|C_i| ≲ n^{k/(2k+1)}`): cluster ids are
//!   tour-time buckets `⌈R_x/(ε w_i)⌉`; each EN17b iteration is one
//!   *local* max, one *convergecast* of per-cluster maxima to `rt`, and
//!   one *broadcast* of the updated `(s, m)` table — `O(|C_i| + D)`
//!   rounds per iteration (Lemma 1).
//! * **Case 2** (many clusters): cluster centers are tour positions cut
//!   every `ε·w_i` of tour length *and* every `⌈εn/(1+ε)^i⌉` positions
//!   (so communication intervals have bounded hop length); each EN17b
//!   iteration runs token sweeps *inside the intervals* — left-to-right
//!   to distribute the cluster state, right-to-left to accumulate the
//!   neighborhood maximum — plus one exchange along `E_i`. `O(interval)`
//!   rounds per iteration, independent of the global cluster count.
//!
//! One deviation from the letter of the paper, recorded in DESIGN.md:
//! in Case 2 the final edge-selection dedup is per *vertex* rather than
//! per cluster (the paper pipelines a per-cluster dedup through the
//! interval; we bound duplicates empirically instead — stretch is
//! unaffected, size grows only marginally on our instances).

use crate::tour_sweep::{tour_sweep, Direction, TourRouting};
use congest::collective;
use congest::obs;
use congest::tree::BfsTree;
use congest::{pack2, Executor, RunStats, Word};
use dist_mst::boruvka::distributed_mst;
use dist_mst::euler::distributed_euler_tour;
use lightgraph::{splitmix64, EdgeId, NodeId, Weight};
use sparse_spanner::baswana_sen::baswana_sen;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Result of the light-spanner construction.
#[derive(Debug, Clone)]
pub struct LightSpannerResult {
    /// Spanner edge ids (sorted, deduplicated; includes the MST).
    pub edges: Vec<EdgeId>,
    /// Buckets simulated with global coordination (Case 1).
    pub case1_buckets: usize,
    /// Buckets simulated with interval coordination (Case 2).
    pub case2_buckets: usize,
    /// Rounds/messages of the whole construction.
    pub stats: RunStats,
}

/// EN17b cluster state: `m` (stored shifted so it is always positive —
/// positive IEEE doubles order like their bit patterns) and source `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClusterState {
    m: f64,
    s: u64,
}

fn enc(m: f64, shift: f64) -> Word {
    let v = m + shift;
    debug_assert!(v >= 0.0, "shifted m must be positive for bit-ordering");
    v.to_bits()
}

fn dec(bits: Word, shift: f64) -> f64 {
    f64::from_bits(bits) - shift
}

/// Exponential radii for a set of cluster ids, re-drawn until all are
/// `< k` (the EN17b stretch precondition; locally checkable by every
/// vertex given the broadcast seed).
fn cluster_radii(clusters: &[u64], k: usize, seed: u64) -> HashMap<u64, f64> {
    let beta = ((3 * clusters.len().max(2)) as f64).ln() / k as f64;
    let mut attempt = 0u64;
    loop {
        let radii: HashMap<u64, f64> = clusters
            .iter()
            .map(|&c| {
                let u = ((splitmix64(seed ^ attempt << 40 ^ c) >> 11) as f64 / (1u64 << 53) as f64)
                    .max(f64::EPSILON);
                (c, -u.ln() / beta)
            })
            .collect();
        if radii.values().all(|&r| r < k as f64) {
            return radii;
        }
        attempt += 1;
        assert!(attempt < 64, "radius sampling failed repeatedly");
    }
}

/// Each vertex's distinct `E_i` neighbors, ascending: the targets of
/// every state exchange of the bucket. `G_i`'s edges are `E_i`, so
/// those are the only neighbors whose state the bucket reads.
fn bucket_neighbors(bucket_edges: &[Vec<(NodeId, Weight, EdgeId)>]) -> Vec<Vec<NodeId>> {
    bucket_edges
        .iter()
        .map(|edges| {
            let mut nbrs: Vec<NodeId> = edges.iter().map(|&(u, _, _)| u).collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            nbrs
        })
        .collect()
}

/// The record `u` sent, in a vertex's exchange records sorted by
/// sender.
fn heard_from(heard: &[(NodeId, [Word; 3])], u: NodeId) -> Option<[Word; 3]> {
    let i = heard.binary_search_by_key(&u, |&(from, _)| from).ok()?;
    Some(heard[i].1)
}

struct BucketContext<'a> {
    bucket_edges: Vec<Vec<(NodeId, Weight, EdgeId)>>,
    cluster_of: Vec<u64>,
    k: usize,
    shift: f64,
    tau: &'a BfsTree,
}

/// Case 1: EN17b on the cluster graph with global (convergecast +
/// broadcast) coordination.
///
/// Both convergecasts are [`collective::converge_merged`] selections.
/// The per-cluster maximum keeps the larger `m`, then the smaller `s`.
/// The edge selection keeps, per (cluster, source) key, the
/// lexicographically smallest `(weight, edge id)`, so a weight tie goes
/// to the smaller edge id whatever the arrival order — the rule Case 2
/// and Borůvka's MWOE use too.
fn simulate_case1<'g>(
    sim: &mut impl Executor<'g>,
    ctx: &BucketContext<'_>,
    seed: u64,
    chosen: &mut HashSet<EdgeId>,
) {
    let n = ctx.cluster_of.len();
    let shift = ctx.shift;
    // active clusters = those with bucket edges
    let mut active: Vec<u64> = (0..n)
        .filter(|&v| !ctx.bucket_edges[v].is_empty())
        .map(|v| ctx.cluster_of[v])
        .collect();
    active.sort_unstable();
    active.dedup();
    if active.is_empty() {
        return;
    }
    let radii = cluster_radii(&active, ctx.k, seed);
    let mut table: BTreeMap<u64, ClusterState> = active
        .iter()
        .map(|&c| (c, ClusterState { m: radii[&c], s: c }))
        .collect();

    // broadcast the radius seed (1 item) — every vertex derives the
    // initial table locally.
    let (r0, _) = collective::broadcast(sim, ctx.tau, vec![(0, [seed, 0])]);
    debug_assert!(r0.iter().all(|r| r.len() == 1));

    for _round in 0..ctx.k {
        // broadcast the current table
        let items: Vec<collective::Item> = table
            .iter()
            .map(|(&c, st)| (c, [enc(st.m, shift), st.s]))
            .collect();
        let (recv, _) = collective::broadcast(sim, ctx.tau, items);
        debug_assert!(recv.iter().all(|r| r.len() == table.len()));
        // local max over neighbor clusters, convergecast per own cluster
        let table_ref = &table;
        let cluster_of = &ctx.cluster_of;
        let bucket_edges = &ctx.bucket_edges;
        let (maxima, _) = collective::converge_merged(
            sim,
            ctx.tau,
            |v| {
                let a = cluster_of[v];
                let mut best: Option<ClusterState> = None;
                for &(u, _, _) in &bucket_edges[v] {
                    let b = cluster_of[u];
                    if b == a {
                        continue;
                    }
                    if let Some(st) = table_ref.get(&b) {
                        let cand = ClusterState {
                            m: st.m - 1.0,
                            s: st.s,
                        };
                        if best
                            .map(|cur| cand.m > cur.m || (cand.m == cur.m && cand.s < cur.s))
                            .unwrap_or(true)
                        {
                            best = Some(cand);
                        }
                    }
                }
                best.map(|st| vec![(a, [enc(st.m, shift), st.s])])
                    .unwrap_or_default()
            },
            |_, a, b| {
                if a[0] > b[0] || (a[0] == b[0] && a[1] <= b[1]) {
                    a
                } else {
                    b
                }
            },
        );
        // rt merges and the next iteration's broadcast distributes it
        for (&c, &[mb, s]) in &maxima {
            let cand = ClusterState {
                m: dec(mb, shift),
                s,
            };
            let cur = table.get_mut(&c).expect("active cluster");
            if cand.m > cur.m || (cand.m == cur.m && cand.s < cur.s) {
                *cur = cand;
            }
        }
    }

    // final table broadcast + edge selection convergecast
    let items: Vec<collective::Item> = table
        .iter()
        .map(|(&c, st)| (c, [enc(st.m, shift), st.s]))
        .collect();
    let (recv, _) = collective::broadcast(sim, ctx.tau, items);
    debug_assert!(recv.iter().all(|r| r.len() == table.len()));
    let table_ref = &table;
    let cluster_of = &ctx.cluster_of;
    let bucket_edges = &ctx.bucket_edges;
    let (selected, _) = collective::gather_merged(sim, ctx.tau, |v| {
        let a = cluster_of[v];
        let Some(my) = table_ref.get(&a) else {
            return Vec::new();
        };
        let mut items = Vec::new();
        for &(u, w, e) in &bucket_edges[v] {
            let b = cluster_of[u];
            if b == a {
                continue;
            }
            if let Some(st) = table_ref.get(&b) {
                if st.m >= my.m - 1.0 {
                    items.push((pack2(a, st.s), [w, e as u64]));
                }
            }
        }
        items
    });
    // rt broadcasts the chosen edges so endpoints learn membership
    let chosen_items: Vec<collective::Item> =
        selected.iter().map(|(&key, &val)| (key, val)).collect();
    let (recv, _) = collective::broadcast(sim, ctx.tau, chosen_items);
    debug_assert!(recv.iter().all(|r| r.len() == selected.len()));
    for &[_, e] in selected.values() {
        chosen.insert(e as EdgeId);
    }
}

/// Case 2: EN17b with interval-local coordination along the Euler tour.
#[allow(clippy::too_many_arguments)]
fn simulate_case2<'g>(
    sim: &mut impl Executor<'g>,
    ctx: &BucketContext<'_>,
    routing: &TourRouting,
    center_of: &[usize],
    first_app: &[usize],
    seed: u64,
    chosen: &mut HashSet<EdgeId>,
) {
    let n = ctx.cluster_of.len();
    let shift = ctx.shift;
    let is_center = {
        let mut v = vec![false; routing.len()];
        for p in 0..routing.len() {
            v[center_of[p]] = true;
        }
        v
    };

    let mut active: Vec<u64> = (0..n)
        .filter(|&v| !ctx.bucket_edges[v].is_empty())
        .map(|v| ctx.cluster_of[v])
        .collect();
    active.sort_unstable();
    active.dedup();
    if active.is_empty() {
        return;
    }
    let radii = cluster_radii(&active, ctx.k, seed);
    let nbrs = bucket_neighbors(&ctx.bucket_edges);
    let mut state: HashMap<u64, ClusterState> = active
        .iter()
        .map(|&c| (c, ClusterState { m: radii[&c], s: c }))
        .collect();
    let (r0, _) = collective::broadcast(sim, ctx.tau, vec![(0, [seed, 0])]);
    debug_assert!(r0.iter().all(|r| r.len() == 1));

    let neutral: [Word; 2] = [0, u64::MAX];
    let better = |a: [Word; 2], b: [Word; 2]| -> [Word; 2] {
        if a[0] > b[0] || (a[0] == b[0] && a[1] <= b[1]) {
            a
        } else {
            b
        }
    };

    // vertex-level knowledge of its own cluster's state, refreshed by
    // the LTR sweep each iteration
    let mut known: Vec<Option<ClusterState>> = (0..n)
        .map(|v| state.get(&ctx.cluster_of[v]).copied())
        .collect();
    // the latest record each vertex heard from each of its `E_i`
    // neighbors, sorted by sender
    let mut heard: Vec<Vec<(NodeId, [Word; 3])>> = Vec::new();
    // what each vertex sent at the bucket's previous exchange
    let mut sent: Vec<[Word; 3]> = Vec::new();

    for round in 0..=ctx.k {
        // (a) LTR sweep distributing center state through intervals
        let is_center_ref = &is_center;
        let (_ltr, _) = tour_sweep(
            sim,
            routing,
            Direction::LeftToRight,
            |p| is_center_ref[p],
            |p| {
                state
                    .get(&(p as u64))
                    .map(|st| [enc(st.m, shift), st.s])
                    .unwrap_or(neutral)
            },
            |_| move |_p: usize, t: [u64; 2]| t,
        );
        // each vertex refreshes its own-cluster knowledge: its first
        // appearance lies in its cluster's interval (free: the value it
        // just received there / the orchestrator mirror)
        for v in 0..n {
            known[v] = state.get(&ctx.cluster_of[v]).copied();
        }
        // (b) E_i-neighbor exchange of (cluster, m, s); a large uniform
        // shift keeps the encoded m positive even for absent states.
        // The bucket's first exchange goes to every neighbor; after it,
        // a vertex sends only a state that changed since its previous
        // exchange, and the receiver overwrites that sender's record.
        // The last one, with the final states, feeds the selection.
        let own: Vec<[Word; 3]> = (0..n)
            .map(|v| {
                let st = known[v].unwrap_or(ClusterState {
                    m: -1.0e9,
                    s: u64::MAX,
                });
                [ctx.cluster_of[v], enc(st.m, 1.0e9), st.s]
            })
            .collect();
        let (records, _) = collective::exchange(sim, |v| {
            (round == 0 || own[v] != sent[v]).then(|| (own[v], nbrs[v].iter().copied()))
        });
        sent = own;
        if round == 0 {
            heard = records;
            for records in &mut heard {
                records.sort_unstable_by_key(|&(from, _)| from);
            }
        } else {
            for (heard, records) in heard.iter_mut().zip(records) {
                for (from, record) in records {
                    let i = heard
                        .binary_search_by_key(&from, |&(u, _)| u)
                        .expect("the bucket's first exchange heard every sender");
                    heard[i].1 = record;
                }
            }
        }
        if round == ctx.k {
            break;
        }
        // (c) local candidate per vertex
        let cand: Vec<[Word; 2]> = (0..n)
            .map(|v| {
                let a = ctx.cluster_of[v];
                let mut best = neutral;
                for &(u, _, _) in &ctx.bucket_edges[v] {
                    if let Some([bc, mb, s]) = heard_from(&heard[v], u) {
                        if bc != a && s != u64::MAX {
                            let m = dec(mb, 1.0e9) - 1.0;
                            if m > -1.0e8 {
                                best = better(best, [enc(m, shift), s]);
                            }
                        }
                    }
                }
                best
            })
            .collect();
        // (d) RTL sweep accumulating the candidates towards centers;
        // every position folds its owner's contribution into the token
        let contribution = |p: usize| -> [Word; 2] {
            let v = routing.owner[p];
            if first_app[v] == p && ctx.cluster_of[v] == center_of[p] as u64 {
                cand[v]
            } else {
                neutral
            }
        };
        let (rtl, _) = tour_sweep(
            sim,
            routing,
            Direction::RightToLeft,
            |p| is_center_ref[p],
            contribution,
            |_| move |p: usize, t: [u64; 2]| better(contribution(p), t),
        );
        // (e) centers merge: incoming token at center position +
        // the center owner's own contribution
        let mut best_at: HashMap<u64, [Word; 2]> = HashMap::new();
        for recs in &rtl {
            for &(p, t) in recs {
                if is_center[p] {
                    let e = best_at.entry(p as u64).or_insert(neutral);
                    *e = better(*e, t);
                }
            }
        }
        for p in 0..routing.len() {
            if is_center[p] {
                let c = contribution(p);
                let e = best_at.entry(p as u64).or_insert(neutral);
                *e = better(*e, c);
            }
        }
        for (&c, &[mb, s]) in &best_at {
            if s == u64::MAX {
                continue;
            }
            if let Some(cur) = state.get_mut(&c) {
                let cand = ClusterState {
                    m: dec(mb, shift),
                    s,
                };
                if cand.m > cur.m || (cand.m == cur.m && cand.s < cur.s) {
                    *cur = cand;
                }
            }
        }
    }

    // Selection on the final exchange, then the per-cluster dedup the
    // paper performs by convergecasting candidate edges through the
    // communication interval ("each vertex receiving edges from A×B
    // will forward only a single such edge"). The dedup itself is the
    // same min-reduction as the sweeps above; its round cost — one
    // interval traversal plus the per-cluster edge count at the
    // bottleneck — is charged explicitly below.
    let mut per_cluster_source: HashMap<(u64, u64), (Weight, EdgeId)> = HashMap::new();
    let mut interval_len: HashMap<u64, u64> = HashMap::new();
    for p in 0..routing.len() {
        *interval_len.entry(center_of[p] as u64).or_insert(0) += 1;
    }
    for v in 0..n {
        let a = ctx.cluster_of[v];
        let Some(my) = known[v] else { continue };
        for &(u, w, e) in &ctx.bucket_edges[v] {
            if let Some([bc, mb, s]) = heard_from(&heard[v], u) {
                if bc != a && s != u64::MAX {
                    let m = dec(mb, 1.0e9);
                    if m >= my.m - 1.0 {
                        let entry = per_cluster_source.entry((a, s)).or_insert((w, e));
                        if (w, e) < *entry {
                            *entry = (w, e);
                        }
                    }
                }
            }
        }
    }
    let mut per_cluster_count: HashMap<u64, u64> = HashMap::new();
    for (&(a, _), &(_, e)) in &per_cluster_source {
        *per_cluster_count.entry(a).or_insert(0) += 1;
        chosen.insert(e);
    }
    let max_interval = interval_len.values().copied().max().unwrap_or(0);
    let max_selected = per_cluster_count.values().copied().max().unwrap_or(0);
    sim.charge(RunStats {
        rounds: max_interval + max_selected,
        messages: per_cluster_source.len() as u64,
        ..RunStats::default()
    });
}

/// Builds a `(2k−1)(1+O(ε))`-spanner with `O(k·n^{1+1/k})` edges and
/// lightness `O(k·n^{1/k})` (Theorem 2).
pub fn light_spanner<'g>(
    sim: &mut impl Executor<'g>,
    tau: &BfsTree,
    rt: NodeId,
    k: usize,
    epsilon: f64,
    seed: u64,
) -> LightSpannerResult {
    assert!(k >= 1, "k must be at least 1");
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    let start = sim.total();
    let g = sim.graph();
    let n = g.n();
    if n <= 1 {
        return LightSpannerResult {
            edges: Vec::new(),
            case1_buckets: 0,
            case2_buckets: 0,
            stats: RunStats::default(),
        };
    }

    // MST + Euler tour (times R_x per appearance).
    let mst = distributed_mst(sim, tau, seed);
    let tour = distributed_euler_tour(sim, tau, &mst, rt);
    let routing = TourRouting::new(&tour);
    let (seq, times) = tour.assemble();
    let l_total = tour.total_length.max(1);
    let mut chosen: HashSet<EdgeId> = mst.mst_edges.iter().copied().collect();

    // first appearance of each vertex
    let mut first_app = vec![usize::MAX; n];
    for (p, &v) in seq.iter().enumerate() {
        first_app[v] = first_app[v].min(p);
    }

    // E′: Baswana–Sen on the light edges.
    let light_cut = l_total / (n as u64).max(1);
    let light_ids: Vec<EdgeId> = (0..g.m()).filter(|&e| g.edge(e).w <= light_cut).collect();
    obs::span(sim, "light", |sim| {
        if !light_ids.is_empty() {
            let (sub, map) = g.edge_subgraph_with_map(light_ids.iter().copied());
            let mut sub_sim = sim.sub(&sub);
            let bs = baswana_sen(&mut sub_sim, k, seed ^ 0xb5);
            let sub_total = sub_sim.total();
            let sub_frontier = sub_sim.frontier_total();
            sim.charge(sub_total);
            sim.charge_frontier(sub_frontier);
            chosen.extend(bs.edges.iter().map(|&e| map[e]));
        }
    });

    // bucket the remaining edges
    let imax = ((n as f64).ln() / (1.0 + epsilon).ln()).ceil() as usize;
    let mut buckets: Vec<Vec<EdgeId>> = vec![Vec::new(); imax + 1];
    for e in 0..g.m() {
        let w = g.edge(e).w;
        if w <= light_cut || w > l_total {
            continue;
        }
        let i = (((l_total as f64) / (w as f64)).ln() / (1.0 + epsilon).ln()).floor() as usize;
        buckets[i.min(imax)].push(e);
    }

    let case_threshold = (n as f64).powf(k as f64 / (2 * k + 1) as f64);
    let mut case1_buckets = 0;
    let mut case2_buckets = 0;

    obs::span(sim, "buckets", |sim| {
        for (i, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let wi = (l_total as f64) / (1.0 + epsilon).powi(i as i32);
            let cluster_width = (epsilon * wi).max(1.0);
            // per-vertex bucket adjacency
            let mut bucket_edges: Vec<Vec<(NodeId, Weight, EdgeId)>> = vec![Vec::new(); n];
            for &e in bucket {
                let edge = g.edge(e);
                bucket_edges[edge.u].push((edge.v, edge.w, e));
                bucket_edges[edge.v].push((edge.u, edge.w, e));
            }
            let shift = (k + 2) as f64;
            let few_clusters = (1.0 + epsilon).powi(i as i32) / epsilon <= case_threshold;
            if few_clusters {
                case1_buckets += 1;
                // cluster id = ⌈R_x / (ε w_i)⌉ for the first appearance
                let cluster_of: Vec<u64> = (0..n)
                    .map(|v| (times[first_app[v]] as f64 / cluster_width).ceil() as u64)
                    .collect();
                let bctx = BucketContext {
                    bucket_edges,
                    cluster_of,
                    k,
                    shift,
                    tau,
                };
                simulate_case1(sim, &bctx, seed ^ (i as u64) << 32, &mut chosen);
            } else {
                case2_buckets += 1;
                // centers: tour-length cuts and index cuts
                let q = ((epsilon * n as f64) / (1.0 + epsilon).powi(i as i32))
                    .ceil()
                    .max(1.0) as usize;
                let len = routing.len();
                let mut center_of = vec![0usize; len];
                let mut last_center = 0usize;
                for p in 0..len {
                    let is_center = p == 0
                        || p % q == 0
                        || (times[p - 1] as f64 / cluster_width).floor()
                            < (times[p] as f64 / cluster_width).floor();
                    if is_center {
                        last_center = p;
                    }
                    center_of[p] = last_center;
                }
                let cluster_of: Vec<u64> = (0..n).map(|v| center_of[first_app[v]] as u64).collect();
                let bctx = BucketContext {
                    bucket_edges,
                    cluster_of,
                    k,
                    shift,
                    tau,
                };
                simulate_case2(
                    sim,
                    &bctx,
                    &routing,
                    &center_of,
                    &first_app,
                    seed ^ (i as u64) << 32,
                    &mut chosen,
                );
            }
        }
    });

    let mut edges: Vec<EdgeId> = chosen.into_iter().collect();
    edges.sort_unstable();
    let stats = sim.total().since(start);
    LightSpannerResult {
        edges,
        case1_buckets,
        case2_buckets,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::tree::build_bfs_tree;
    use congest::Simulator;
    use lightgraph::{generators, metrics};

    fn check(
        g: &lightgraph::Graph,
        k: usize,
        eps: f64,
        seed: u64,
    ) -> (metrics::SpannerQuality, LightSpannerResult) {
        let mut sim = Simulator::new(g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let r = light_spanner(&mut sim, &tau, 0, k, eps, seed);
        let h = g.edge_subgraph_dedup(r.edges.iter().copied());
        assert!(h.is_connected(), "spanner contains the MST");
        let q = metrics::spanner_quality(g, &h);
        let bound = (2 * k - 1) as f64 * (1.0 + 5.0 * eps) + 1e-9;
        assert!(
            q.stretch <= bound,
            "stretch {} exceeds {bound} (k={k}, eps={eps})",
            q.stretch
        );
        let light_bound = 30.0 * k as f64 * (g.n() as f64).powf(1.0 / k as f64);
        assert!(
            q.lightness <= light_bound,
            "lightness {} exceeds O(k n^(1/k)) = {light_bound}",
            q.lightness
        );
        (q, r)
    }

    #[test]
    fn quality_on_random_graphs() {
        for seed in 0..2 {
            let g = generators::erdos_renyi(60, 0.15, 60, seed);
            check(&g, 2, 0.25, seed);
            check(&g, 3, 0.25, seed);
        }
    }

    #[test]
    fn quality_on_geometric_and_chord_graphs() {
        let g = generators::random_geometric(50, 0.3, 3);
        check(&g, 2, 0.25, 3);
        let g2 = generators::tree_plus_chords(60, 30, 80, 4);
        check(&g2, 2, 0.25, 4);
    }

    const HEAVY_CHORDS: [(NodeId, NodeId); 4] = [(0, 40), (3, 30), (7, 44), (11, 37)];
    const MID_CHORDS: [(NodeId, NodeId); 4] = [(2, 20), (5, 25), (9, 33), (14, 41)];

    /// Case 1 needs edges with weight comparable to L = 2·w(MST): a
    /// unit-weight path (MST weight n−1) plus chords near L, plus
    /// mid-weight chords for Case 2.
    fn both_cases_graph() -> lightgraph::Graph {
        let n = 48;
        let mut g = generators::path(n, 1);
        let l = 2 * (n as u64 - 1);
        for (i, &(u, v)) in HEAVY_CHORDS.iter().enumerate() {
            g.add_edge(u, v, l - 4 - i as u64).unwrap(); // heaviest bucket
        }
        for (i, &(u, v)) in MID_CHORDS.iter().enumerate() {
            g.add_edge(u, v, 8 + i as u64).unwrap(); // mid buckets
        }
        g
    }

    #[test]
    fn both_cases_are_exercised() {
        let (_, r) = check(&both_cases_graph(), 2, 0.25, 5);
        assert!(r.case1_buckets > 0, "no Case-1 bucket exercised");
        assert!(r.case2_buckets > 0, "no Case-2 bucket exercised");
    }

    /// FNV-1a over a word stream.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Pins Case 1's selection: `case1_buckets`, the edge count and an
    /// FNV-1a fold over the sorted edge ids (root 0, seed 5, Simulator).
    /// Which convergecast carries the selection is cost, not structure.
    #[test]
    fn case1_selection_is_pinned() {
        let pin = |g: &lightgraph::Graph, k: usize, eps: f64, want: (usize, usize, u64)| {
            let mut sim = Simulator::new(g);
            let (tau, _) = build_bfs_tree(&mut sim, 0);
            let r = light_spanner(&mut sim, &tau, 0, k, eps, 5);
            let got = (
                r.case1_buckets,
                r.edges.len(),
                fnv(r.edges.iter().map(|&e| e as u64)),
            );
            assert_eq!(got, want, "k = {k}, eps = {eps}: buckets, edges, fold");
        };
        // Every (k, ε) ∈ {1, 2, 3} × {0.25, 0.5} that reaches Case 1
        // on `both_cases_graph` ((1, 0.25) does not).
        let g = both_cases_graph();
        pin(&g, 1, 0.5, (1, 52, 0xbda4_1cd8_7667_66e9));
        pin(&g, 2, 0.25, (1, 53, 0xddf5_c9ee_0b45_5c99));
        pin(&g, 2, 0.5, (1, 52, 0xbda4_1cd8_7667_66e9));
        pin(&g, 3, 0.25, (1, 53, 0xddf5_c9ee_0b45_5c99));
        pin(&g, 3, 0.5, (1, 52, 0xbda4_1cd8_7667_66e9));
        // Tie-heavy: the same eight chords, all of weight L − 4 and
        // inserted in reverse order, so several candidate edges of one
        // (cluster, source) key tie on weight. Case 1 keeps the
        // lexicographically smallest (weight, edge id), whatever the
        // arrival order — the same rule as Case 2 and Borůvka.
        let n = 48;
        let mut g = generators::path(n, 1);
        let l = 2 * (n as u64 - 1);
        for &(u, v) in HEAVY_CHORDS.iter().chain(&MID_CHORDS).rev() {
            g.add_edge(u, v, l - 4).unwrap();
        }
        pin(&g, 2, 0.25, (1, 49, 0x360a_5a9d_3b1b_f5f9));
        pin(&g, 3, 0.25, (1, 49, 0x360a_5a9d_3b1b_f5f9));
    }

    #[test]
    fn sparsity_beats_dense_input() {
        // With a narrow weight range most edges land in the E′ bucket,
        // where Baswana–Sen does the sparsification.
        let g = generators::complete(60, 3, 6);
        let (q, _) = check(&g, 3, 0.25, 6);
        assert!(
            q.edges < 2 * g.m() / 3,
            "spanner kept {} of {} edges",
            q.edges,
            g.m()
        );
    }

    #[test]
    fn k1_has_stretch_one_plus_eps() {
        let g = generators::erdos_renyi(30, 0.2, 20, 7);
        let (q, _) = check(&g, 1, 0.25, 7);
        assert!(q.stretch <= 1.0 + 5.0 * 0.25);
    }
}
