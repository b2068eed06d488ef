//! The engine's topology-derived structure.
//!
//! Everything the engine derives from the input **topology alone** —
//! the CSR index and the per-directed-edge sender/receiver maps — is
//! built once, in the engine's constructor, together with the shard
//! plan (bounds, claim orders, node owners) for its thread count, and
//! reused by every run. A sub-executor builds its own for its own
//! graph. A stressed run cuts a plan from its seed and drops it when
//! the run ends. Reuse is semantics-invisible by the determinism
//! contract (`congest::exec`, "plan reuse" note): a reused plan is
//! byte-for-byte the plan a fresh cut would produce.

use crate::csr::Csr;
use lightgraph::{Graph, NodeId};

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

/// Topology-derived engine structure, built once per engine.
pub(crate) struct EngineTopo {
    pub csr: Csr,
    pub senders: Vec<NodeId>,
    pub receivers: Vec<NodeId>,
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
        }
    }
}
