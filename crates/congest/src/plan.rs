//! Process-wide executor wall accumulators and the topology
//! fingerprint.
//!
//! Each executor builds its topology-derived structure once, in its
//! constructor, and reuses it for every run (contract "plan reuse" note
//! in [`crate::exec`]). Nothing topology-derived is shared between
//! executors: a composite algorithm (SLT = tree + spanner +
//! contractions) builds each derived graph once and runs one
//! sub-executor on it, so no two executors see the same topology.
//!
//! This module holds what every executor does share: wall accumulators
//! fed by root and sub-executors alike, so a driver can report the
//! setup and phase walls of a composite workload without reaching into
//! the sub-executors it spawns, and [`topo_key`], a weight-blind
//! fingerprint drivers stamp on their output to show that two runs
//! built the same instance.
//!
//! # Fingerprint collisions
//!
//! Keys are `(n, m, fp₁, fp₂)` with two independent 64-bit
//! splitmix-fold streams over the endpoint list — 128 fingerprint bits.
//! A collision would require two distinct topologies with equal `n`,
//! `m`, and both streams, with probability on the order of 2⁻¹²⁸ per
//! pair.

use lightgraph::{splitmix64, Graph};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide setup wall accumulator: every executor (`Simulator`
/// and the parallel engine, root and sub alike) adds its per-run setup
/// wall — a stressed run's plan cut, arena checkout and program
/// construction — here, so a driver can report the setup floor of a
/// composite workload without reaching into the sub-executors it
/// spawns internally (the scenario runner's `setup_ms` column reads the
/// delta around each cell). Wall-clock only — never part of any
/// deterministic quantity (contract clause 8).
static SETUP_WALL_NS: AtomicU64 = AtomicU64::new(0);

/// Adds one run's setup wall (called by executors; see
/// [`setup_wall_ns`]).
pub fn add_setup_ns(ns: u64) {
    SETUP_WALL_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Cumulative process-wide executor setup wall, in nanoseconds.
pub fn setup_wall_ns() -> u64 {
    SETUP_WALL_NS.load(Ordering::Relaxed)
}

/// Process-wide per-phase wall accumulators (deliver, compute,
/// barrier), fed by every *timed* run (metrics or tracing enabled) of
/// every executor — the cross-sub-executor counterpart of
/// `Executor::wall_total` for breakdown reporting.
static PHASE_WALL_NS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Adds one timed run's `(deliver_ns, compute_ns, barrier_ns)`.
pub fn add_phase_wall_ns(deliver: u64, compute: u64, barrier: u64) {
    PHASE_WALL_NS[0].fetch_add(deliver, Ordering::Relaxed);
    PHASE_WALL_NS[1].fetch_add(compute, Ordering::Relaxed);
    PHASE_WALL_NS[2].fetch_add(barrier, Ordering::Relaxed);
}

/// Cumulative process-wide `(deliver_ns, compute_ns, barrier_ns)`.
pub fn phase_wall_ns() -> (u64, u64, u64) {
    (
        PHASE_WALL_NS[0].load(Ordering::Relaxed),
        PHASE_WALL_NS[1].load(Ordering::Relaxed),
        PHASE_WALL_NS[2].load(Ordering::Relaxed),
    )
}

/// `(n, m, fp₁, fp₂)` — see the module docs on collision odds.
pub type TopoKey = (usize, usize, u64, u64);

/// The fingerprint of `graph`: a pure function of the topology (ordered
/// endpoint list), independent of edge weights.
pub fn topo_key(graph: &Graph) -> TopoKey {
    let mut s1: u64 = 0x243F_6A88_85A3_08D3; // pi digits; any fixed seeds do
    let mut s2: u64 = 0x1319_8A2E_0370_7344;
    let (mut fp1, mut fp2) = (0u64, 0u64);
    for e in graph.edges() {
        let word = ((e.u as u64) << 32) | e.v as u64;
        fp1 = fp1.wrapping_add(splitmix64(s1 ^ word)).rotate_left(7);
        fp2 = fp2.wrapping_add(splitmix64(s2 ^ word)).rotate_left(11);
        s1 = s1.wrapping_add(1);
        s2 = s2.wrapping_add(3);
    }
    (graph.n(), graph.m(), fp1, fp2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightgraph::generators;

    #[test]
    fn same_topology_hits_regardless_of_weights() {
        let g1 = Graph::from_edges(3, [(0, 1, 5), (1, 2, 7)]).unwrap();
        let g2 = Graph::from_edges(3, [(0, 1, 9), (1, 2, 1)]).unwrap();
        assert_eq!(topo_key(&g1), topo_key(&g2));
    }

    #[test]
    fn distinct_topologies_get_distinct_keys() {
        let mut keys = std::collections::HashSet::new();
        for seed in 0..32u64 {
            let g = generators::erdos_renyi(24, 0.2, 3, seed);
            assert!(keys.insert(topo_key(&g)), "key collision at seed {seed}");
        }
        // Reordered endpoints are a different topology fingerprint.
        let a = Graph::from_edges(3, [(0, 1, 1), (1, 2, 1)]).unwrap();
        let b = Graph::from_edges(3, [(1, 2, 1), (0, 1, 1)]).unwrap();
        assert_ne!(topo_key(&a), topo_key(&b));
    }
}
