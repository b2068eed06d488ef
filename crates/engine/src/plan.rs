//! The engine's side of the run-session layer (see `congest::plan`).
//!
//! Everything the engine derives from the input **topology alone** —
//! the CSR index, the per-directed-edge sender/receiver maps, and the
//! per-configuration shard plans (bounds, claim orders, node owners) —
//! lives here, behind `Arc`s shared by a root engine and
//! every sub-executor it spawns. Reuse is semantics-invisible by the
//! determinism contract (`congest::exec`, "plan reuse" note): a cached
//! plan is byte-for-byte the plan a cold build would produce.
//!
//! Shard plans additionally depend on the worker-thread count and the
//! stress seed, so they are cached *per topology* keyed by that pair —
//! a stressed run participates in the cache through its seed (same
//! seed, same plan) rather than bypassing it.

use crate::csr::Csr;
use lightgraph::{Graph, NodeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Bound on retained per-configuration shard plans per topology. Env
/// stress draws a fresh seed every run, so the map would otherwise grow
/// one entry per stressed run; on overflow it is cleared (a miss just
/// rebuilds).
const PLAN_CAP: usize = 64;

/// One shard configuration: bounds, per-worker claim orders, and the
/// shard owning each node.
pub(crate) struct PlanData {
    pub shards: Vec<(usize, usize)>,
    pub orders: Vec<Vec<usize>>,
    pub shard_of: Vec<u32>,
}

impl PlanData {
    /// A plan over `n` nodes cut into the contiguous `shards`, which
    /// cover `0..n`.
    pub fn new(n: usize, shards: Vec<(usize, usize)>, orders: Vec<Vec<usize>>) -> Self {
        let mut shard_of = vec![0u32; n];
        for (s, &(lo, hi)) in shards.iter().enumerate() {
            shard_of[lo..hi].fill(s as u32);
        }
        PlanData {
            shards,
            orders,
            shard_of,
        }
    }
}

/// Topology-derived engine structure, cached in the shared
/// `congest::plan::TopoCache` and reused across runs, sub-runs, and
/// sub-executors on the same topology.
pub(crate) struct EngineTopo {
    pub csr: Csr,
    pub senders: Vec<NodeId>,
    pub receivers: Vec<NodeId>,
    plans: Mutex<HashMap<(usize, Option<u64>), Arc<PlanData>>>,
}

impl EngineTopo {
    pub fn build(graph: &Graph) -> Self {
        let csr = Csr::new(graph);
        let senders = (0..csr.directed_len())
            .map(|d| Csr::sender(graph, d))
            .collect();
        let receivers = (0..csr.directed_len())
            .map(|d| Csr::receiver(graph, d))
            .collect();
        EngineTopo {
            csr,
            senders,
            receivers,
            plans: Mutex::new(HashMap::new()),
        }
    }

    /// The shard plan for `(threads, stress)`, built via `build` on a
    /// miss. Returns `(plan, built)` — `built` feeds the engine's
    /// `plan_builds` diagnostic counter. A poisoned lock degrades to an
    /// uncached build.
    pub fn plan_for(
        &self,
        threads: usize,
        stress: Option<u64>,
        build: impl FnOnce() -> PlanData,
    ) -> (Arc<PlanData>, bool) {
        let Ok(mut map) = self.plans.lock() else {
            return (Arc::new(build()), true);
        };
        if let Some(p) = map.get(&(threads, stress)) {
            return (p.clone(), false);
        }
        if map.len() >= PLAN_CAP {
            map.clear();
        }
        let p = Arc::new(build());
        map.insert((threads, stress), p.clone());
        (p, true)
    }
}
