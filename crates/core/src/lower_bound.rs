//! The lower-bound reduction (§8, Theorem 7).
//!
//! Das Sarma et al. \[SHK+12\] showed that approximating the MST weight to
//! within polynomial factors needs `Ω̃(√n)` rounds; since SLTs and light
//! spanners certify such an approximation (Theorem 6), so do they. For
//! nets, Theorem 7 exhibits an explicit reduction: computing
//! `(α·2^i, 2^i)`-nets for every scale `i` yields the estimator
//!
//! ```text
//! Ψ = Σ_i n_i · α · 2^{i+1},   n_i = |N_i|,
//! ```
//!
//! with `L ≤ Ψ ≤ O(α·log n)·L`. This module reproduces the estimator on
//! top of the §6 net construction so the sandwich can be verified
//! empirically — the artifact behind the `Ω̃(√n + D)` net lower bound.

use crate::nets::net;
use congest::tree::BfsTree;
use congest::{Executor, RunStats};
use lightgraph::Weight;

/// Result of the MST-weight estimation from nets.
#[derive(Debug, Clone)]
pub struct MstWeightEstimate {
    /// The estimator `Ψ`.
    pub psi: Weight,
    /// `(scale 2^i, |N_i|)` per scale, until a single net point remains.
    pub scales: Vec<(Weight, usize)>,
    /// The effective covering parameter `α = (1+δ)` of the nets used.
    pub alpha: f64,
    /// Rounds/messages of all net constructions.
    pub stats: RunStats,
}

/// Estimates the MST weight via net cardinalities (Theorem 7's
/// reduction), using `δ = 1/2` nets (`α = 3/2`).
///
/// Guarantee (proved in §8): `L ≤ Ψ ≤ O(α log n) · L` where `L` is the
/// MST weight.
pub fn estimate_mst_weight<'g>(
    sim: &mut impl Executor<'g>,
    tau: &BfsTree,
    seed: u64,
) -> MstWeightEstimate {
    let start = sim.total();
    let delta = 0.5;
    let alpha = 1.0 + delta;
    let mut scales = Vec::new();
    let mut psi: Weight = 0;
    let mut scale: Weight = 1;
    let mut i = 0u64;
    loop {
        let r = net(sim, tau, scale, delta, seed ^ i << 9);
        let ni = r.points.len();
        // Ψ accumulates n_i · α · 2^{i+1}
        psi += ((ni as f64) * alpha * (2 * scale) as f64).ceil() as Weight;
        scales.push((scale, ni));
        if ni <= 1 {
            break;
        }
        scale *= 2;
        i += 1;
        assert!(i < 64, "scale overflow — weights beyond poly(n)?");
    }
    let stats = sim.total().since(start);
    MstWeightEstimate {
        psi,
        scales,
        alpha,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::tree::build_bfs_tree;
    use congest::Simulator;
    use lightgraph::{generators, mst};

    fn check(g: &lightgraph::Graph, seed: u64) {
        let l = mst::kruskal(g).weight;
        let mut sim = Simulator::new(g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let est = estimate_mst_weight(&mut sim, &tau, seed);
        assert!(est.psi >= l, "Ψ = {} below the MST weight {l}", est.psi);
        let log_n = (g.n().max(2) as f64).log2();
        let upper = (est.alpha * 16.0 * log_n * l as f64).ceil() as Weight + 16;
        assert!(
            est.psi <= upper,
            "Ψ = {} exceeds O(α log n)·L = {upper} (L = {l})",
            est.psi
        );
        // net cardinality is non-increasing in the scale
        for w in est.scales.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1, "cardinality should shrink with scale");
        }
    }

    #[test]
    fn sandwich_on_random_graphs() {
        for seed in 0..2 {
            check(&generators::erdos_renyi(40, 0.15, 30, seed), seed);
        }
    }

    #[test]
    fn sandwich_on_structured_graphs() {
        check(&generators::path(30, 7), 1);
        check(&generators::grid(6, 6, 12, 2), 2);
        check(&generators::star(25, 9, 3), 3);
    }
}
