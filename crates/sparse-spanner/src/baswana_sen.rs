//! Distributed Baswana–Sen (2k−1)-spanner for weighted graphs \[BS07\].
//!
//! §5 of the paper uses this algorithm for the low-weight bucket `E′`
//! ("in O(k) rounds we get a (2k−1)-spanner of `G′`, where the expected
//! number of edges is O(k · n^{1+1/k})"). It is also an experiment
//! baseline: a sparse spanner with *no lightness guarantee*.
//!
//! The algorithm runs `k` phases of cluster sampling. Each phase costs
//! `O(1)` rounds (one neighbor exchange); sampling uses a common seed,
//! so the decision "is cluster c sampled in phase i" is locally
//! computable by every vertex.

use congest::collective;
use congest::{Executor, RunStats};
use lightgraph::{splitmix64, EdgeId, Weight};
use std::collections::HashMap;

/// Result of the Baswana–Sen construction.
#[derive(Debug, Clone)]
pub struct BsSpanner {
    /// Spanner edge ids (deduplicated, sorted).
    pub edges: Vec<EdgeId>,
    /// Rounds/messages consumed.
    pub stats: RunStats,
}

/// Runs distributed Baswana–Sen with parameter `k ≥ 1` on the
/// simulator's graph, returning a (2k−1)-spanner with expected
/// `O(k · n^{1+1/k})` edges in `O(k)` rounds.
///
/// `seed` drives cluster sampling; the construction is deterministic in
/// it. Stretch `2k−1` holds for every run (the randomness only affects
/// the size).
pub fn baswana_sen<'g>(sim: &mut impl Executor<'g>, k: usize, seed: u64) -> BsSpanner {
    assert!(k >= 1, "stretch parameter k must be at least 1");
    let start = sim.total();
    let g = sim.graph();
    let n = g.n();
    let m = g.m();
    let p = (n.max(2) as f64).powf(-1.0 / k as f64);

    // center[v] = Some(center id) while v is clustered.
    let mut center: Vec<Option<u64>> = (0..n).map(|v| Some(v as u64)).collect();
    // active[e] per vertex view: both endpoints must consider an edge
    // active for it to be relaxed; each vertex prunes independently.
    let mut active: Vec<Vec<bool>> = (0..n).map(|v| vec![true; g.degree(v)]).collect();
    let mut chosen: Vec<bool> = vec![false; g.m()];

    for phase in 1..=k {
        // (a) every clustered vertex tells each neighbor, in adjacency
        // order, its center; records are sorted by sender for lookup.
        // A retired vertex (`center = None`, which is permanent) sends
        // nothing, and its neighbors find no record from it.
        let (mut nbr, _) = collective::exchange(sim, |v| {
            center[v].map(|c| ([c], g.neighbors(v).iter().map(|&(u, _, _)| u)))
        });
        for records in &mut nbr {
            records.sort_unstable_by_key(|&(from, _)| from);
        }
        // (b) sampling decision, locally computable from the seed.
        // The last phase samples nothing, forcing every clustered
        // vertex to connect to all adjacent clusters.
        let sampled = |c: u64| -> bool {
            phase < k
                && (splitmix64(seed ^ (phase as u64) << 24 ^ c) as f64) < p * (u64::MAX as f64)
        };
        // (c) local decisions (free).
        for v in 0..n {
            let Some(cv) = center[v] else { continue };
            if sampled(cv) {
                continue;
            }
            // lightest active edge per adjacent (clustered) cluster
            let mut best: HashMap<u64, (Weight, EdgeId, usize)> = HashMap::new();
            for (i, &(u, w, e)) in g.neighbors(v).iter().enumerate() {
                if !active[v][i] {
                    continue;
                }
                let Ok(j) = nbr[v].binary_search_by_key(&u, |&(from, _)| from) else {
                    continue;
                };
                let [cu] = nbr[v][j].1;
                if cu == cv {
                    active[v][i] = false; // intra-cluster
                    continue;
                }
                let cand = (w, e, i);
                let entry = best.entry(cu).or_insert(cand);
                if (cand.0, cand.1) < (entry.0, entry.1) {
                    *entry = cand;
                }
            }
            // lightest edge into a *sampled* adjacent cluster, if any
            let join = best
                .iter()
                .filter(|&(&c, _)| sampled(c))
                .map(|(&c, &(w, e, i))| ((w, e), c, i))
                .min();
            match join {
                Some(((jw, je), jc, ji)) => {
                    chosen[je] = true;
                    center[v] = Some(jc);
                    active[v][ji] = false;
                    // connect to every strictly lighter cluster, then
                    // drop those edges
                    for (&c, &(w, e, i)) in &best {
                        if c == jc {
                            active[v][i] = false;
                            continue;
                        }
                        if (w, e) < (jw, je) {
                            chosen[e] = true;
                            active[v][i] = false;
                        }
                    }
                }
                None => {
                    // no sampled neighbor cluster: connect to all
                    // adjacent clusters and retire
                    for (&_c, &(_w, e, i)) in &best {
                        chosen[e] = true;
                        active[v][i] = false;
                    }
                    center[v] = None;
                    for a in &mut active[v] {
                        *a = false;
                    }
                }
            }
        }
    }

    // Any edge still active on both sides connects two vertices of the
    // same final cluster hierarchy that never got separated — add the
    // remaining inter-cluster lightest edges handled above; edges
    // between two retired vertices were covered when the first endpoint
    // retired (it added its lightest edge per cluster, and a retired
    // neighbor was in *some* cluster at that time).
    let edges: Vec<EdgeId> = (0..m).filter(|&e| chosen[e]).collect();
    let stats = sim.total().since(start);
    BsSpanner { edges, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::Simulator;
    use lightgraph::{generators, metrics, Graph};

    fn check(g: &Graph, k: usize, seed: u64) -> BsSpanner {
        let mut sim = Simulator::new(g);
        let sp = baswana_sen(&mut sim, k, seed);
        let h = g.edge_subgraph_dedup(sp.edges.iter().copied());
        let stretch = metrics::max_stretch(g, &h);
        assert!(
            stretch <= (2 * k - 1) as f64 + 1e-9,
            "stretch {stretch} exceeds {} (k={k})",
            2 * k - 1
        );
        sp
    }

    #[test]
    fn stretch_bound_holds_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi(50, 0.2, 40, seed);
            for k in 1..=4 {
                check(&g, k, seed * 10 + k as u64);
            }
        }
    }

    #[test]
    fn stretch_bound_holds_on_dense_graph() {
        let g = generators::complete(30, 50, 7);
        for k in 2..=3 {
            check(&g, k, k as u64);
        }
    }

    #[test]
    fn k1_returns_whole_graph() {
        let g = generators::erdos_renyi(20, 0.3, 10, 1);
        let sp = check(&g, 1, 1);
        assert_eq!(sp.edges.len(), g.m(), "k=1 must keep every edge");
    }

    #[test]
    fn sparsifies_dense_graphs() {
        let g = generators::complete(64, 100, 3);
        let sp = check(&g, 3, 3);
        // m = 2016; a 5-spanner should drop most of it. Expected size
        // O(k n^{1+1/k}) ≈ 3*64^{4/3} ≈ 768; allow slack.
        assert!(
            sp.edges.len() < g.m() / 2,
            "spanner has {} of {} edges",
            sp.edges.len(),
            g.m()
        );
    }

    #[test]
    fn runs_in_o_k_rounds() {
        let g = generators::erdos_renyi(60, 0.15, 30, 5);
        let mut sim = Simulator::new(&g);
        let sp = baswana_sen(&mut sim, 4, 5);
        assert!(sp.stats.rounds <= 4 * 3, "BS must cost O(k) rounds");
    }
}
