//! The Elkin–Neiman unweighted spanner \[EN17b\] — the algorithm §5
//! simulates on cluster graphs.
//!
//! Every vertex `x` draws `r(x)` from an exponential distribution with
//! rate `β = ln(c·n)/k`; `m(x)` starts at `r(x)` with source `s(x) = x`,
//! and for `k` rounds every vertex adopts the maximum of
//! `m(neighbor) − 1` over its closed neighborhood. After `k` rounds,
//! for every source `y` whose message reached `x` with value
//! `≥ m(x) − 1`, `x` adds one edge to a neighbor that delivered it.
//!
//! Stretch `2k−1` is *guaranteed* provided `r(x) < k` for all `x`
//! (checked locally; the paper conditions its analysis on this event,
//! which holds with probability ≥ 1 − 1/c); the size `O(n^{1+1/k})`
//! holds in expectation.
//!
//! This module is the sequential EN17b reference: the sampling, update
//! and selection rules and a runner over explicit adjacency lists. It
//! has no caller outside its own tests; `lightnet::light_spanner`
//! simulates EN17b with its own `cluster_radii` and `ClusterState`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exponential radii for the EN17b algorithm: `r(x) ~ Exp(β)` with
/// `β = ln(c·n)/k`, `c = 3`. Deterministic in `seed`.
///
/// Returns `(radii, ok)` where `ok` is the event `∀x: r(x) < k` that
/// the stretch analysis is conditioned on; callers re-draw on `!ok`
/// (expected `O(1)` retries).
pub fn sample_radii(n: usize, k: usize, seed: u64) -> (Vec<f64>, bool) {
    assert!(k >= 1);
    let beta = ((3 * n.max(2)) as f64).ln() / k as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let radii: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            -u.ln() / beta
        })
        .collect();
    let ok = radii.iter().all(|&r| r < k as f64);
    (radii, ok)
}

/// The per-round state of one vertex in the EN17b propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnState {
    /// Current value `m(x)`.
    pub m: f64,
    /// Source vertex `s(x)` whose (decremented) radius `m` carries.
    pub s: usize,
}

/// One synchronous EN17b update: every vertex adopts the maximum of its
/// own state and `m(v) − 1` over incoming neighbor states. Returns the
/// new states given this round's incoming `(neighbor state)` lists.
pub fn en_update(own: &[EnState], incoming: &[Vec<EnState>]) -> Vec<EnState> {
    own.iter()
        .zip(incoming)
        .map(|(me, inc)| {
            let mut best = *me;
            for n in inc {
                let cand = EnState { m: n.m, s: n.s };
                if cand.m > best.m || (cand.m == best.m && cand.s < best.s) {
                    best = cand;
                }
            }
            best
        })
        .collect()
}

/// Sequential EN17b on an explicit unweighted graph given as adjacency
/// lists. Returns spanner edges as `(u, v)` pairs with `u < v`.
///
/// Re-draws radii until the stretch precondition `∀x: r(x) < k` holds
/// (geometric number of retries).
pub fn en_spanner(adj: &[Vec<usize>], k: usize, seed: u64) -> Vec<(usize, usize)> {
    let n = adj.len();
    let mut attempt = 0u64;
    let radii = loop {
        let (r, ok) = sample_radii(n, k, seed.wrapping_add(attempt));
        if ok {
            break r;
        }
        attempt += 1;
        assert!(
            attempt < 64,
            "radius sampling failed 64 times — bad parameters?"
        );
    };

    // m/s propagation for k rounds. States the neighbors *sent* last
    // round are their values minus one.
    let mut state: Vec<EnState> = (0..n).map(|x| EnState { m: radii[x], s: x }).collect();
    // received[x] = set of (source, best decremented value, via) with
    // maximum value per source — needed for the edge-selection rule.
    let mut best_via: Vec<std::collections::HashMap<usize, (f64, usize)>> =
        vec![std::collections::HashMap::new(); n];
    for _ in 0..k {
        let sent: Vec<EnState> = state
            .iter()
            .map(|st| EnState {
                m: st.m - 1.0,
                s: st.s,
            })
            .collect();
        let mut incoming: Vec<Vec<EnState>> = vec![Vec::new(); n];
        for x in 0..n {
            for &y in &adj[x] {
                incoming[x].push(sent[y]);
                let entry = best_via[x].entry(sent[y].s).or_insert((sent[y].m, y));
                if sent[y].m > entry.0 {
                    *entry = (sent[y].m, y);
                }
            }
        }
        state = en_update(&state, &incoming);
    }

    // Edge selection: for every source y whose message reached x with
    // value ≥ m(x) − 1, add one edge towards a neighbor that sent it.
    let mut edges: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    for x in 0..n {
        for (&_src, &(val, via)) in &best_via[x] {
            if val >= state[x].m - 1.0 {
                edges.insert((x.min(via), x.max(via)));
            }
        }
    }
    let mut out: Vec<(usize, usize)> = edges.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightgraph::{generators, metrics, Graph};

    fn to_adj(g: &Graph) -> Vec<Vec<usize>> {
        (0..g.n())
            .map(|v| g.neighbors(v).iter().map(|&(u, _, _)| u).collect())
            .collect()
    }

    fn unweighted(g: &Graph) -> Graph {
        Graph::from_edges(g.n(), g.edges().iter().map(|e| (e.u, e.v, 1))).unwrap()
    }

    #[test]
    fn stretch_holds_on_unweighted_graphs() {
        for seed in 0..3 {
            let g = unweighted(&generators::erdos_renyi(60, 0.15, 1, seed));
            let adj = to_adj(&g);
            for k in 2..=4 {
                let edges = en_spanner(&adj, k, seed * 7 + k as u64);
                let mut h = Graph::new(g.n());
                for &(u, v) in &edges {
                    h.add_edge(u, v, 1).unwrap();
                }
                let s = metrics::max_stretch(&g, &h);
                assert!(
                    s <= (2 * k - 1) as f64 + 1e-9,
                    "stretch {s} > {} for k={k} seed={seed}",
                    2 * k - 1
                );
            }
        }
    }

    #[test]
    fn sparsifies_dense_unweighted_graphs() {
        let g = unweighted(&generators::complete(60, 1, 1));
        let adj = to_adj(&g);
        let edges = en_spanner(&adj, 3, 9);
        assert!(
            edges.len() < g.m() / 2,
            "{} of {} edges kept",
            edges.len(),
            g.m()
        );
    }

    #[test]
    fn radii_respect_precondition_flag() {
        let (r, ok) = sample_radii(100, 3, 42);
        assert_eq!(r.len(), 100);
        if ok {
            assert!(r.iter().all(|&x| x < 3.0));
        }
        // determinism
        assert_eq!(sample_radii(100, 3, 42).0, r);
    }

    #[test]
    fn en_update_prefers_larger_m_then_smaller_source() {
        let own = vec![EnState { m: 1.0, s: 5 }];
        let inc = vec![vec![EnState { m: 2.0, s: 9 }, EnState { m: 2.0, s: 3 }]];
        let out = en_update(&own, &inc);
        assert_eq!(out[0], EnState { m: 2.0, s: 3 });
    }

    #[test]
    fn connected_input_yields_connected_spanner() {
        let g = unweighted(&generators::erdos_renyi(40, 0.3, 1, 4));
        let adj = to_adj(&g);
        let edges = en_spanner(&adj, 2, 11);
        let mut h = Graph::new(g.n());
        for &(u, v) in &edges {
            h.add_edge(u, v, 1).unwrap();
        }
        assert!(h.is_connected(), "finite stretch requires connectivity");
    }
}
