//! Cross-executor topology-plan cache.
//!
//! Composite algorithms (SLT = tree + spanner + contractions) spawn
//! sub-executors on derived graphs and issue hundreds of sub-runs; PR 9
//! made the *message* path allocation-free, which left per-run and
//! per-sub-executor **setup** — routing tables, receiver maps, shard
//! plans — as the dominant cost of the small rows. This module holds
//! the shared piece of the run-session layer: a cache of structures
//! derivable from the input **topology alone** (node count plus the
//! ordered edge-endpoint list — explicitly *not* weights, which none of
//! the cached structures read), keyed by a topology fingerprint and
//! shared by every sub-executor spawned from one root executor.
//!
//! Reuse is semantics-invisible by the determinism contract
//! ([`crate::exec`], "plan reuse" note): observable behavior is a pure
//! function of `(graph, programs, cap)`, never of when or how often
//! derived structure was built. The cache therefore needs no
//! invalidation beyond identity — graphs are immutable for the life of
//! an executor borrowing them, and a different topology hashes to a
//! different key.
//!
//! # Fingerprint collisions
//!
//! Keys are `(n, m, fp₁, fp₂)` with two independent 64-bit
//! splitmix-fold streams over the endpoint list — 128 fingerprint bits.
//! A collision would require two distinct topologies with equal `n`,
//! `m`, and both streams; at the cache's size bound the probability is
//! on the order of 2⁻¹²⁸ · |cache|², far below hardware error rates.

use lightgraph::Graph;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Process-wide setup wall accumulator: every executor (`Simulator`
/// and the parallel engine, root and sub alike) adds its per-run setup
/// wall — plan/arena acquisition and program construction — here, so a
/// driver can report the setup floor of a composite workload without
/// reaching into the sub-executors it spawns internally (`bench`'s
/// `setup_ms` column reads the delta around each workload). Wall-clock
/// only — never part of any deterministic quantity (contract clause 8).
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

/// Size bound: a pathological workload that churns unique topologies
/// (property tests sweep thousands of random graphs) must not grow the
/// cache without bound. On overflow the map is cleared — correctness is
/// unaffected (a miss rebuilds), and real composite algorithms touch
/// far fewer distinct topologies than this.
const CACHE_CAP: usize = 64;

/// `(n, m, fp₁, fp₂)` — see the module docs on collision odds.
pub type TopoKey = (usize, usize, u64, u64);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cache key for `graph`: a pure function of the topology (ordered
/// endpoint list), independent of edge weights.
pub fn topo_key(graph: &Graph) -> TopoKey {
    let mut s1: u64 = 0x243F_6A88_85A3_08D3; // pi digits; any fixed seeds do
    let mut s2: u64 = 0x1319_8A2E_0370_7344;
    let (mut fp1, mut fp2) = (0u64, 0u64);
    for e in graph.edges() {
        let word = ((e.u as u64) << 32) | e.v as u64;
        let mut a = s1 ^ word;
        fp1 = fp1.wrapping_add(splitmix(&mut a)).rotate_left(7);
        let mut b = s2 ^ word;
        fp2 = fp2.wrapping_add(splitmix(&mut b)).rotate_left(11);
        s1 = s1.wrapping_add(1);
        s2 = s2.wrapping_add(3);
    }
    (graph.n(), graph.m(), fp1, fp2)
}

/// A concurrent cache of topology-derived executor structure (`T`),
/// shared by a root executor and all its sub-executors via `Arc`.
///
/// The single correctness requirement on `T` is that it is derivable
/// from the topology key alone: node count and the ordered edge
/// endpoint list. Anything reading weights, program state, or executor
/// configuration must **not** be cached here.
pub struct TopoCache<T> {
    map: Mutex<HashMap<TopoKey, Arc<T>>>,
}

impl<T> Default for TopoCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TopoCache<T> {
    pub fn new() -> Self {
        TopoCache {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the cached structure for `graph`'s topology, building
    /// and inserting it on a miss. A poisoned lock (a builder panicked
    /// on another thread) degrades to an uncached build.
    pub fn get_or_build(&self, graph: &Graph, build: impl FnOnce(&Graph) -> T) -> Arc<T> {
        let key = topo_key(graph);
        let Ok(mut map) = self.map.lock() else {
            return Arc::new(build(graph));
        };
        if let Some(t) = map.get(&key) {
            return t.clone();
        }
        if map.len() >= CACHE_CAP {
            map.clear();
        }
        let t = Arc::new(build(graph));
        map.insert(key, t.clone());
        t
    }

    /// Number of distinct topologies currently cached (diagnostics and
    /// tests).
    pub fn cached(&self) -> usize {
        self.map.lock().map(|m| m.len()).unwrap_or(0)
    }
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
        let cache: TopoCache<usize> = TopoCache::new();
        let a = cache.get_or_build(&g1, |g| g.n());
        let b = cache.get_or_build(&g2, |g| g.n());
        assert!(Arc::ptr_eq(&a, &b), "identical topology must hit");
        assert_eq!(cache.cached(), 1);
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

    #[test]
    fn cache_cap_clears_instead_of_growing() {
        let cache: TopoCache<usize> = TopoCache::new();
        for seed in 0..(CACHE_CAP as u64 + 8) {
            let g = generators::erdos_renyi(16, 0.3, 2, seed);
            cache.get_or_build(&g, |g| g.n());
        }
        assert!(cache.cached() <= CACHE_CAP);
    }
}
