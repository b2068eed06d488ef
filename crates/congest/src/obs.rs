//! Observability: phase spans, per-node message accounting, and
//! profiling sinks — zero-cost when off.
//!
//! Run-level [`RunStats`] totals answer *how much* a composite
//! algorithm cost, but not *where*: which phase spent the message
//! budget, and which nodes carried it. This module adds three
//! independent observers, all governed by the **observer-neutrality
//! clause** (clause 8 of the [`Executor`] contract):
//! attaching or detaching any of them never changes outputs,
//! `RunStats`, [`FrontierStats`](crate::FrontierStats), or any other
//! deterministic quantity.
//!
//! 1. **Phase spans.** A composite algorithm wraps each phase in
//!    [`span`], which charges the phase the *delta* of the executor's
//!    cumulative counters. Spans nest into a deterministic
//!    [`SpanTree`] (wall-clock is carried along but is not part of the
//!    deterministic payload). When no collector is installed
//!    ([`collect_spans`]), `span` is a single thread-local check and
//!    the closure runs untouched.
//! 2. **Per-node histograms.** [`NodeStats`] counts, per node, the
//!    logical messages it sent, the messages delivered to it, and its
//!    `Program::round` invocations. Engines allocate the `3 × n`
//!    vector lazily, only when recording is switched on. The derived
//!    [`NodeSummary`] (`msg_max`, `msg_max_node`, `msg_p50`,
//!    `msg_p99`) is a deterministic function of the run, bit-identical
//!    across conforming engines.
//! 3. **Profiling hooks.** Engines with a [`TraceSink`] attached emit
//!    one [`RoundTrace`] record per round (delivered volume, active
//!    width, and per-phase wall time), buffered and flushed as JSONL.
//!    The per-phase wall breakdown also lands in [`RunReport::wall`]
//!    when metrics recording is on.
//!
//! [`RunReport`] is shared by both executors — assembled once, by
//! [`ExecCore::end_run`](crate::exec::ExecCore::end_run) — so the
//! sequential [`Simulator`](crate::Simulator) reports the same
//! per-round series as the parallel engine, which is what lets
//! `engine = "both"` scenario sweeps cross-check the series, not just
//! the totals.

use crate::exec::Executor;
use crate::program::RunStats;
use lightgraph::{EdgeId, NodeId};
use std::cell::RefCell;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Phase spans
// ---------------------------------------------------------------------------

/// One named phase of a composite algorithm: the delta of the
/// executor's cumulative counters over the phase, plus nested
/// sub-phases.
///
/// Everything except [`SpanNode::wall_ns`] is deterministic and
/// engine-identical (clause 8); `wall_ns` is machine-dependent, like
/// `wall_ms` in scenario rows, and must be scrubbed wherever span
/// trees are pinned.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Phase name, e.g. `"mst"`.
    pub name: &'static str,
    /// Rounds/messages charged to this phase (children included).
    pub stats: RunStats,
    /// `Program::round` invocations executed during this phase.
    pub invocations: u64,
    /// Scheduler-executed rounds during this phase
    /// (`FrontierStats::rounds` delta — excludes analytical charges).
    pub sched_rounds: u64,
    /// Wall-clock nanoseconds spent in the phase (machine-dependent).
    pub wall_ns: u64,
    /// Nested sub-phases, in execution order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Messages physically delivered during this phase.
    pub fn delivered(&self) -> u64 {
        self.stats.messages_delivered()
    }

    /// Deliveries attributed to named children (children of a span
    /// measured on a *different* executor — e.g. a sub-executor phase —
    /// attribute independently; see [`span`]).
    pub fn child_delivered(&self) -> u64 {
        self.children.iter().map(SpanNode::delivered).sum()
    }
}

/// The spans recorded by one [`collect_spans`] scope, roots in
/// execution order.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// Top-level spans (those opened with no enclosing span).
    pub roots: Vec<SpanNode>,
}

impl SpanTree {
    /// First span named `name`, depth-first.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        fn dfs<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
            for n in nodes {
                if n.name == name {
                    return Some(n);
                }
                if let Some(hit) = dfs(&n.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        dfs(&self.roots, name)
    }

    /// Every span with its `/`-joined path (e.g. `"slt/spt/relax"`),
    /// pre-order.
    pub fn flatten(&self) -> Vec<(String, &SpanNode)> {
        fn walk<'a>(prefix: &str, nodes: &'a [SpanNode], out: &mut Vec<(String, &'a SpanNode)>) {
            for n in nodes {
                let path = if prefix.is_empty() {
                    n.name.to_owned()
                } else {
                    format!("{prefix}/{name}", name = n.name)
                };
                out.push((path.clone(), n));
                walk(&path, &n.children, out);
            }
        }
        let mut out = Vec::new();
        walk("", &self.roots, &mut out);
        out
    }
}

struct Frame {
    children: Vec<SpanNode>,
}

struct Collector {
    stack: Vec<Frame>,
    roots: Vec<SpanNode>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Whether a [`collect_spans`] scope is active on this thread.
pub fn spans_active() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Runs `f(exec)` as the named phase `name`.
///
/// Without an active collector this is a single thread-local check and
/// a direct call. With one, the span charges
/// `exec.total() − total-before` (and the frontier deltas) to `name`,
/// nesting under the innermost open span on this thread.
///
/// The deltas are measured on the executor *passed in*, so phases of a
/// sub-executor (`exec.sub(...)`) work naturally: wrap the sub-phase
/// around the sub-executor and its span charges the sub-run, while an
/// enclosing span on the parent sees the sub-run only through whatever
/// the algorithm later `charge()`s back.
///
/// # Examples
///
/// Spans record per-phase round/message deltas only inside a
/// [`collect_spans`] scope (and are free, observer-neutral pass-throughs
/// outside one — contract clause 8):
///
/// ```
/// use congest::obs::{collect_spans, span};
/// use congest::tree::build_bfs_tree;
/// use congest::{Executor, Simulator};
/// use lightgraph::generators;
///
/// let g = generators::cycle(6, 1);
/// let mut sim = Simulator::new(&g);
/// let ((bfs, _stats), spans) = collect_spans(|| {
///     span(&mut sim, "bfs", |exec| build_bfs_tree(exec, 0))
/// });
/// assert_eq!(bfs.root, 0);
/// let node = spans.find("bfs").expect("span recorded");
/// assert_eq!(node.stats.rounds, sim.total().rounds);
/// assert!(node.invocations > 0);
/// ```
pub fn span<'g, E: Executor<'g>, R>(
    exec: &mut E,
    name: &'static str,
    f: impl FnOnce(&mut E) -> R,
) -> R {
    if !spans_active() {
        return f(exec);
    }
    let s0 = exec.total();
    let f0 = exec.frontier_total();
    let t0 = Instant::now();
    COLLECTOR.with(|c| {
        c.borrow_mut()
            .as_mut()
            .expect("collector checked active")
            .stack
            .push(Frame {
                children: Vec::new(),
            })
    });
    let r = f(exec);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let s1 = exec.total();
    let f1 = exec.frontier_total();
    COLLECTOR.with(|c| {
        let mut b = c.borrow_mut();
        let col = b.as_mut().expect("collector still active");
        let frame = col.stack.pop().expect("span stack balanced");
        let node = SpanNode {
            name,
            stats: s1.since(s0),
            invocations: f1.invocations - f0.invocations,
            sched_rounds: f1.rounds - f0.rounds,
            wall_ns,
            children: frame.children,
        };
        match col.stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => col.roots.push(node),
        }
    });
    r
}

/// Installs a span collector on this thread, runs `f`, and returns its
/// result together with the recorded [`SpanTree`].
///
/// Re-entrant: a nested `collect_spans` shadows the outer collector
/// for its duration (the outer one is restored afterwards, also on
/// panic).
pub fn collect_spans<R>(f: impl FnOnce() -> R) -> (R, SpanTree) {
    struct Restore {
        prev: Option<Collector>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.prev.take();
            COLLECTOR.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = COLLECTOR.with(|c| {
        c.borrow_mut().replace(Collector {
            stack: Vec::new(),
            roots: Vec::new(),
        })
    });
    let _restore = Restore { prev };
    let r = f();
    let tree = COLLECTOR.with(|c| {
        c.borrow_mut()
            .take()
            .map(|col| SpanTree { roots: col.roots })
            .unwrap_or_default()
    });
    (r, tree)
}

// ---------------------------------------------------------------------------
// Per-node accounting
// ---------------------------------------------------------------------------

/// Per-node message and invocation counts, accumulated across every
/// run of the executor that recorded them (lazily allocated — `3 × n`
/// `u64`s exist only while recording is enabled).
///
/// Invariants, per executor, for runs executed *on that executor*
/// (sub-executor work enters only through an explicit
/// [`Executor::charge_sub`], which requires the same node-id space): `Σ sent == RunStats::messages`,
/// `Σ delivered == RunStats::messages_delivered()`, and
/// `Σ invocations == FrontierStats::invocations`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Logical messages staged by each node (`Ctx::send` calls,
    /// including ones later absorbed by a combiner).
    pub sent: Vec<u64>,
    /// Messages physically delivered into each node's inbox.
    pub delivered: Vec<u64>,
    /// `Program::round` invocations executed at each node.
    pub invocations: Vec<u64>,
}

impl NodeStats {
    /// Zeroed counters for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        NodeStats {
            sent: vec![0; n],
            delivered: vec![0; n],
            invocations: vec![0; n],
        }
    }

    /// Number of nodes covered.
    pub fn n(&self) -> usize {
        self.sent.len()
    }

    /// Adds another executor's counters node-by-node.
    ///
    /// # Panics
    /// Panics when the node counts differ — per-node counters only
    /// compose within one node-id space.
    pub fn absorb(&mut self, other: &NodeStats) {
        assert_eq!(
            self.n(),
            other.n(),
            "NodeStats::absorb requires the same node-id space"
        );
        for (a, b) in self.sent.iter_mut().zip(&other.sent) {
            *a += b;
        }
        for (a, b) in self.delivered.iter_mut().zip(&other.delivered) {
            *a += b;
        }
        for (a, b) in self.invocations.iter_mut().zip(&other.invocations) {
            *a += b;
        }
    }

    /// Deterministic summary of the per-node message load
    /// (`sent + delivered` per node).
    pub fn summary(&self) -> NodeSummary {
        let mut loads: Vec<u64> = self
            .sent
            .iter()
            .zip(&self.delivered)
            .map(|(&s, &d)| s + d)
            .collect();
        if loads.is_empty() {
            return NodeSummary::default();
        }
        let (mut msg_max, mut msg_max_node) = (loads[0], 0);
        for (v, &l) in loads.iter().enumerate().skip(1) {
            if l > msg_max {
                msg_max = l;
                msg_max_node = v;
            }
        }
        loads.sort_unstable();
        let rank = |q: f64| -> u64 {
            // Nearest-rank percentile over the sorted loads.
            let idx = ((q * loads.len() as f64).ceil() as usize).clamp(1, loads.len()) - 1;
            loads[idx]
        };
        NodeSummary {
            msg_max,
            msg_max_node,
            msg_p50: rank(0.50),
            msg_p99: rank(0.99),
        }
    }
}

/// Summary columns derived from [`NodeStats`]: all integers, all
/// deterministic, all cross-engine bit-identical (clause 8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSummary {
    /// Largest per-node message load (`sent + delivered`).
    pub msg_max: u64,
    /// Node carrying `msg_max` (smallest id on ties).
    pub msg_max_node: NodeId,
    /// Median per-node message load (nearest-rank).
    pub msg_p50: u64,
    /// 99th-percentile per-node message load (nearest-rank).
    pub msg_p99: u64,
}

// ---------------------------------------------------------------------------
// Run reports (shared by both engines)
// ---------------------------------------------------------------------------

/// Number of hot edges retained in [`RunReport::hot_edges`].
pub const HOT_EDGE_TOP_K: usize = 16;

/// Wall-clock nanoseconds per engine phase, summed over the run.
/// Machine-dependent (scrub wherever pinned); the sequential simulator
/// reports `barrier_ns == 0`.
///
/// The parallel engine samples every worker, not just worker 0:
/// `deliver_ns`/`compute_ns` aggregate the **max across workers** per
/// phase (the phase's wall time is its slowest worker), while
/// `barrier_ns` aggregates the **total wait across workers** (the
/// imbalance the pool paid). Attribution of barrier waits at round
/// boundaries is approximate: a worker may publish its wait a moment
/// after worker 0 closes the round's books, shifting nanoseconds into
/// the next round. These are diagnostics, never determinism-bearing.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseWall {
    /// Time spent delivering queued messages into inboxes.
    pub deliver_ns: u64,
    /// Time spent running `Program::round` and staging sends.
    pub compute_ns: u64,
    /// Time spent waiting at phase barriers (parallel engine only).
    pub barrier_ns: u64,
}

impl PhaseWall {
    /// Adds another run's phase times.
    pub fn absorb(&mut self, other: PhaseWall) {
        self.deliver_ns += other.deliver_ns;
        self.compute_ns += other.compute_ns;
        self.barrier_ns += other.barrier_ns;
    }
}

/// Congestion instrumentation for one run, collected when metrics
/// recording is enabled on the executor. Everything except
/// [`RunReport::threads`] and [`RunReport::wall`] is deterministic and
/// engine-identical, which is what lets `engine = "both"` sweeps
/// cross-check the per-round series.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Rounds executed (same value as the run's `RunStats::rounds`).
    pub rounds: u64,
    /// Logical messages sent (same value as the run's
    /// `RunStats::messages`).
    pub total_messages: u64,
    /// Messages physically delivered to inboxes; equals
    /// `total_messages` unless a per-edge combiner merged some away
    /// (contract clause 7).
    pub messages_delivered: u64,
    /// Messages absorbed by per-edge combining (same value as the run's
    /// `RunStats::messages_combined`).
    pub messages_combined: u64,
    /// Messages delivered in each round — the per-round message
    /// histogram; index 0 is round 1. Sums to `messages_delivered`.
    pub messages_per_round: Vec<u64>,
    /// Largest backlog across all directed-edge queues *after* each
    /// round's sends; a proxy for congestion pressure.
    pub max_queue_depth_per_round: Vec<u64>,
    /// Active nodes (nodes whose `Program::round` ran) in each round —
    /// the frontier-size histogram; index 0 is round 1. Sums to the
    /// run's `FrontierStats::invocations`.
    pub active_per_round: Vec<u64>,
    /// The `HOT_EDGE_TOP_K` undirected edges carrying the most traffic,
    /// as `(edge id, delivered messages)`, heaviest first.
    pub hot_edges: Vec<(EdgeId, u64)>,
    /// Worker threads the run used (1 for the simulator).
    pub threads: usize,
    /// Per-phase wall-time breakdown (machine-dependent).
    pub wall: PhaseWall,
}

impl RunReport {
    /// Peak per-round message volume.
    pub fn peak_round_messages(&self) -> u64 {
        self.messages_per_round.iter().copied().max().unwrap_or(0)
    }

    /// Peak queue depth over the whole run.
    pub fn peak_queue_depth(&self) -> u64 {
        self.max_queue_depth_per_round
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Peak per-round active-node count (frontier width).
    pub fn peak_active(&self) -> u64 {
        self.active_per_round.iter().copied().max().unwrap_or(0)
    }

    /// Builds the top-K hot-edge list from per-directed-edge delivery
    /// counts (queue index = `2 * edge_id + dir`, both engines'
    /// convention).
    pub fn rank_hot_edges(per_directed: &[u64]) -> Vec<(EdgeId, u64)> {
        let m = per_directed.len() / 2;
        let mut per_edge: Vec<(EdgeId, u64)> = (0..m)
            .map(|e| (e, per_directed[2 * e] + per_directed[2 * e + 1]))
            .filter(|&(_, c)| c > 0)
            .collect();
        per_edge.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        per_edge.truncate(HOT_EDGE_TOP_K);
        per_edge
    }
}

// ---------------------------------------------------------------------------
// Trace sink
// ---------------------------------------------------------------------------

/// One per-round profiling record (pillar 3). `round`, `delivered`,
/// and `active` are deterministic; the `*_ns` fields are wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTrace {
    /// Round number (1-based, matching `RunStats::rounds`).
    pub round: u64,
    /// Messages delivered this round.
    pub delivered: u64,
    /// Nodes whose `Program::round` ran this round.
    pub active: u64,
    /// Wall time of the round's deliver phase.
    pub deliver_ns: u64,
    /// Wall time of the round's compute phase.
    pub compute_ns: u64,
    /// Wall time spent at barriers this round (0 for the simulator).
    pub barrier_ns: u64,
}

/// How many formatted records a [`TraceSink`] buffers before flushing
/// to the underlying writer.
pub const TRACE_BUF_RECORDS: usize = 1024;

/// A buffered JSONL sink for profiling records.
///
/// Engines push one [`RoundTrace`] per round; span trees are appended
/// after a run via [`TraceSink::push_spans`]. Records accumulate in a
/// bounded ring of [`TRACE_BUF_RECORDS`] formatted lines that flushes
/// to the writer whenever it fills (and on drop), so a traced
/// million-round run streams instead of buffering everything.
///
/// Share one sink between executors (e.g. a simulator and an engine in
/// an `engine = "both"` sweep) through [`TraceSink::shared`]; each
/// executor stamps its records with the run id it drew from
/// [`TraceSink::begin_run`].
pub struct TraceSink {
    out: Box<dyn Write + Send>,
    buf: Vec<String>,
    runs: u64,
}

/// A [`TraceSink`] shareable between executors (and engine worker
/// threads).
pub type SharedTraceSink = Arc<Mutex<TraceSink>>;

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("buffered", &self.buf.len())
            .field("runs", &self.runs)
            .finish()
    }
}

impl TraceSink {
    /// A sink writing JSONL to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        TraceSink {
            out,
            buf: Vec::with_capacity(TRACE_BUF_RECORDS),
            runs: 0,
        }
    }

    /// A shared sink, ready to attach to several executors.
    pub fn shared(out: Box<dyn Write + Send>) -> SharedTraceSink {
        Arc::new(Mutex::new(TraceSink::new(out)))
    }

    /// Registers the start of a run on `engine` (`"sim"` or
    /// `"parallel"`); returns the run id to stamp its records with.
    pub fn begin_run(&mut self, engine: &str) -> u64 {
        self.runs += 1;
        let id = self.runs;
        self.push_line(format!(
            "{{\"type\":\"run\",\"run\":{id},\"engine\":\"{engine}\"}}"
        ));
        id
    }

    /// Appends one per-round record.
    pub fn push_round(&mut self, run: u64, rec: RoundTrace) {
        self.push_line(format!(
            "{{\"type\":\"round\",\"run\":{run},\"round\":{round},\"delivered\":{delivered},\
             \"active\":{active},\"deliver_ns\":{dns},\"compute_ns\":{cns},\"barrier_ns\":{bns}}}",
            round = rec.round,
            delivered = rec.delivered,
            active = rec.active,
            dns = rec.deliver_ns,
            cns = rec.compute_ns,
            bns = rec.barrier_ns,
        ));
    }

    /// Appends one span record per node of `tree`, labeled `scope`
    /// (e.g. the scenario cell), paths pre-order `/`-joined.
    pub fn push_spans(&mut self, scope: &str, tree: &SpanTree) {
        for (path, n) in tree.flatten() {
            self.push_line(format!(
                "{{\"type\":\"span\",\"scope\":\"{scope}\",\"path\":\"{path}\",\
                 \"rounds\":{rounds},\"messages\":{messages},\
                 \"messages_combined\":{combined},\"messages_delivered\":{delivered},\
                 \"invocations\":{inv},\"sched_rounds\":{sched},\"wall_ns\":{wall}}}",
                rounds = n.stats.rounds,
                messages = n.stats.messages,
                combined = n.stats.messages_combined,
                delivered = n.delivered(),
                inv = n.invocations,
                sched = n.sched_rounds,
                wall = n.wall_ns,
            ));
        }
    }

    fn push_line(&mut self, line: String) {
        self.buf.push(line);
        if self.buf.len() >= TRACE_BUF_RECORDS {
            let _ = self.flush();
        }
    }

    /// Writes every buffered record through to the writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        for line in self.buf.drain(..) {
            writeln!(self.out, "{line}")?;
        }
        self.out.flush()
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use lightgraph::Graph;

    #[test]
    fn summary_of_zero_nodes_is_the_default() {
        // n = 0: no loads at all — must not panic or divide by zero,
        // and every column stays at its zero default.
        let stats = NodeStats::new(0);
        assert_eq!(stats.summary(), NodeSummary::default());
        assert_eq!(NodeStats::default().summary(), NodeSummary::default());
    }

    #[test]
    fn summary_of_an_all_quiescent_run_is_all_zeros() {
        // All-zero loads (every node quiescent, nothing sent or
        // delivered): percentile ranks must stay in bounds and the
        // argmax must be the smallest node id.
        let stats = NodeStats::new(5);
        let s = stats.summary();
        assert_eq!(s.msg_max, 0);
        assert_eq!(s.msg_max_node, 0, "ties break to the smallest id");
        assert_eq!(s.msg_p50, 0);
        assert_eq!(s.msg_p99, 0);

        // Single-node edge case: nearest-rank index must clamp to the
        // only element for every quantile.
        let one = NodeStats::new(1);
        assert_eq!(one.summary(), NodeSummary::default());

        // End-to-end: a recorded run where no program ever sends.
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        sim.set_record_node_stats(true);
        struct Silent;
        impl crate::Program for Silent {
            type Output = ();
            fn init(&mut self, _: &mut crate::Ctx<'_>) {}
            fn round(
                &mut self,
                _: &mut crate::Ctx<'_>,
                _: &[(lightgraph::NodeId, crate::Message)],
            ) {
            }
            fn finish(self) {}
        }
        let (_, stats) = crate::Executor::run(&mut sim, |_, _| Silent);
        assert_eq!(stats.messages, 0);
        let ns = crate::Executor::node_stats(&sim).expect("recording enabled");
        assert_eq!(ns.summary(), NodeSummary::default());
    }

    #[test]
    fn span_is_transparent_without_a_collector() {
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        assert!(!spans_active());
        let out = span(&mut sim, "noop", |_| 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn collect_spans_nests_and_charges_deltas() {
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        let ((), tree) = collect_spans(|| {
            span(&mut sim, "outer", |sim| {
                span(sim, "inner", |sim| {
                    sim.charge(RunStats {
                        rounds: 3,
                        messages: 7,
                        messages_combined: 2,
                    });
                });
                sim.charge(RunStats {
                    rounds: 1,
                    messages: 1,
                    messages_combined: 0,
                });
            });
        });
        assert_eq!(tree.roots.len(), 1);
        let outer = &tree.roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.stats.rounds, 4);
        assert_eq!(outer.stats.messages, 8);
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.stats.messages, 7);
        assert_eq!(inner.delivered(), 5);
        assert_eq!(tree.find("inner").unwrap().stats.rounds, 3);
        assert!(tree.find("absent").is_none());
        let paths: Vec<String> = tree.flatten().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, vec!["outer".to_owned(), "outer/inner".to_owned()]);
        // The collector uninstalls with the scope.
        assert!(!spans_active());
    }

    #[test]
    fn collect_spans_restores_an_outer_collector() {
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        let ((), outer_tree) = collect_spans(|| {
            let ((), inner_tree) = collect_spans(|| {
                span(&mut sim, "shadowed", |_| {});
            });
            assert_eq!(inner_tree.roots.len(), 1);
            assert!(spans_active(), "outer collector restored");
            span(&mut sim, "outer_only", |_| {});
        });
        let names: Vec<&str> = outer_tree.roots.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["outer_only"]);
    }

    #[test]
    fn node_summary_is_nearest_rank() {
        let ns = NodeStats {
            sent: vec![0, 5, 1, 3],
            delivered: vec![2, 5, 0, 0],
            invocations: vec![0; 4],
        };
        let s = ns.summary();
        assert_eq!(s.msg_max, 10);
        assert_eq!(s.msg_max_node, 1);
        // loads sorted: [1, 2, 3, 10]; p50 = idx 1, p99 = idx 3.
        assert_eq!(s.msg_p50, 2);
        assert_eq!(s.msg_p99, 10);
        assert_eq!(NodeStats::new(0).summary(), NodeSummary::default());
    }

    #[test]
    fn node_summary_ties_pick_the_smallest_node() {
        let ns = NodeStats {
            sent: vec![4, 4, 4],
            delivered: vec![0, 0, 0],
            invocations: vec![0; 3],
        };
        assert_eq!(ns.summary().msg_max_node, 0);
    }

    #[test]
    fn node_stats_absorb_adds_componentwise() {
        let mut a = NodeStats::new(2);
        a.sent[0] = 1;
        let mut b = NodeStats::new(2);
        b.sent[0] = 2;
        b.delivered[1] = 3;
        a.absorb(&b);
        assert_eq!(a.sent, vec![3, 0]);
        assert_eq!(a.delivered, vec![0, 3]);
    }

    #[test]
    fn trace_sink_buffers_and_flushes_jsonl() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Out(Arc<Mutex<Vec<u8>>>);
        impl Write for Out {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        {
            let mut sink = TraceSink::new(Box::new(Out(Arc::clone(&buf))));
            let run = sink.begin_run("sim");
            sink.push_round(
                run,
                RoundTrace {
                    round: 1,
                    delivered: 5,
                    active: 2,
                    ..RoundTrace::default()
                },
            );
            assert_eq!(buf.lock().unwrap().len(), 0, "buffered, not yet written");
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "drop flushed the ring");
        assert!(lines[0].contains("\"type\":\"run\""));
        assert!(lines[1].contains("\"delivered\":5"));
    }

    #[test]
    fn run_report_peaks_and_hot_edges() {
        let per_directed = vec![3, 1, 0, 0, 2, 9];
        let hot = RunReport::rank_hot_edges(&per_directed);
        assert_eq!(hot, vec![(2, 11), (0, 4)]);
        let r = RunReport::default();
        assert_eq!(r.peak_round_messages(), 0);
        assert_eq!(r.peak_queue_depth(), 0);
        assert_eq!(r.peak_active(), 0);
        let mut w = PhaseWall::default();
        w.absorb(PhaseWall {
            deliver_ns: 1,
            compute_ns: 2,
            barrier_ns: 3,
        });
        assert_eq!((w.deliver_ns, w.compute_ns, w.barrier_ns), (1, 2, 3));
    }
}
