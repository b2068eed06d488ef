//! The sequential reference engine: per-edge FIFO queues with a
//! bandwidth cap, frontier-scheduled rounds.

use crate::exec::{ExecCore, Executor};
use crate::message::Message;
use crate::obs::PhaseWall;
use crate::program::{Ctx, Program, RunStats};
use crate::slab::{EdgeQueue, Slab};
use lightgraph::{EdgeId, Graph, NodeId};
use std::collections::HashMap;
use std::time::Instant;

/// One queued message in the simulator: the sender, the (possibly
/// merged) payload, and — in validation mode only — the logical
/// messages the payload absorbed, for the combiner re-fold check.
struct QueuedMsg {
    from: NodeId,
    msg: Message,
    originals: Vec<Message>,
}

/// Stages one message on a directed-edge queue, combining per contract
/// clause 7; returns `true` when the message was absorbed into a
/// co-queued message instead of appending.
fn stage_message<P: Program>(
    slab: &mut Slab<QueuedMsg>,
    q: &mut EdgeQueue,
    qi: usize,
    p: &P,
    from: NodeId,
    msg: Message,
    validate: bool,
) -> bool {
    let key = p.combine_key(&msg);
    slab.stage(
        q,
        qi,
        key,
        QueuedMsg {
            from,
            msg,
            originals: Vec::new(),
        },
        |old, new| {
            if validate && old.originals.is_empty() {
                old.originals.push(old.msg.clone());
            }
            let merged = p.combine(&old.msg, &new.msg);
            if validate {
                assert_eq!(
                    p.combine_key(&merged),
                    key,
                    "combiner contract violated: node {from}'s merge changed the combining key"
                );
                old.originals.push(new.msg);
            } else {
                debug_assert_eq!(p.combine_key(&merged), key, "combiner changed the key");
            }
            old.msg = merged;
        },
    )
}

/// Validation-mode re-fold: merging the retained logical messages in
/// reverse order must reproduce the incrementally merged survivor —
/// anything else means the combiner is order-sensitive (not
/// associative/commutative), which would break engine-bit-identity on
/// a different staging schedule.
fn refold_check<P: Program>(p: &P, entry: &QueuedMsg) {
    let mut acc = entry
        .originals
        .last()
        .expect("refold needs originals")
        .clone();
    for m in entry.originals.iter().rev().skip(1) {
        acc = p.combine(&acc, m);
    }
    assert_eq!(
        acc,
        entry.msg,
        "combiner contract violated: re-folding node {}'s {} messages in reverse order \
         yields a different survivor — Program::combine is not associative/commutative",
        entry.from,
        entry.originals.len()
    );
}

/// Topology-derived routing for the simulator, built once in the
/// constructor and reused by every run: the neighbor → edge-id maps and
/// the directed-edge receiver table. Both are pure functions of the
/// endpoint list, so reuse is semantics-invisible (contract "plan
/// reuse" note in [`crate::exec`]).
struct SimTopo {
    edge_of: Vec<HashMap<NodeId, EdgeId>>,
    /// Receiver of each directed edge `2 * edge_id + dir` (`dir` 0 =
    /// `u → v`), the queue-index convention shared with `engine::Csr`.
    receivers: Vec<NodeId>,
}

impl SimTopo {
    fn build(graph: &Graph) -> Self {
        let mut edge_of: Vec<HashMap<NodeId, EdgeId>> = vec![HashMap::new(); graph.n()];
        let mut receivers: Vec<NodeId> = Vec::with_capacity(2 * graph.m());
        for (id, e) in graph.edges().iter().enumerate() {
            edge_of[e.u].entry(e.v).or_insert(id);
            edge_of[e.v].entry(e.u).or_insert(id);
            receivers.push(e.v);
            receivers.push(e.u);
        }
        SimTopo { edge_of, receivers }
    }
}

/// Per-run scratch kept across runs (every list is left or made empty
/// at run start, so only capacity survives): the hundreds of sub-runs a
/// composite algorithm issues on one executor reuse these instead of
/// reallocating them.
#[derive(Default)]
struct SimScratch {
    staged: Vec<(NodeId, Message)>,
    charged_list: Vec<usize>,
    carry: Vec<NodeId>,
    delivered: Vec<(NodeId, ())>,
    still_charged: Vec<usize>,
    next_carry: Vec<NodeId>,
    active_scratch: Vec<NodeId>,
    /// Record-mode per-directed-edge delivery counters (zero-filled at
    /// the start of each recording run).
    per_directed: Vec<u64>,
}

/// The CONGEST network simulator.
///
/// Holds per-directed-edge FIFO queues and executes [`Program`]s in
/// synchronous rounds. Cumulative statistics over all runs are kept in
/// [`Executor::total`], so a composite algorithm (an orchestration of
/// several program runs with free local computation in between) is
/// charged the sum of its phases, matching the paper's accounting.
///
/// This is the *reference* engine: simple, sequential, and the
/// semantics against which the parallel engine (`crates/engine`) is
/// property-tested for bit-identical behavior. In particular it is the
/// semantics **oracle for frontier scheduling** (clause 5 of the
/// [`Executor`] contract): each round's active set is built from the
/// directed edges that delivered a message this round plus the
/// non-quiescent carryover from the previous round, and only active
/// nodes have [`Program::round`] invoked. Per-round work is therefore
/// proportional to the frontier and the message volume, not to `n` or
/// `m` — while outputs and [`RunStats`] are bit-identical to a dense
/// every-node-every-round schedule for activation-correct programs.
pub struct Simulator<'g> {
    graph: &'g Graph,
    core: ExecCore,
    validate_activation: bool,
    /// Topology-derived routing, built in the constructor.
    topo: SimTopo,
    /// Arena storage recycled across runs ([`crate::slab`]): the entry
    /// pool, the per-directed-edge queue headers, the charged flags,
    /// and the per-node inboxes. All empty between runs — quiescence
    /// drains every queue — but they keep their high-water capacity, so
    /// the later phases of a composite algorithm stage and deliver
    /// without allocating.
    slab: Slab<QueuedMsg>,
    heads: Vec<EdgeQueue>,
    charged: Vec<bool>,
    inboxes: Vec<Vec<(NodeId, Message)>>,
    scratch: SimScratch,
}

impl<'g> std::fmt::Debug for Simulator<'g> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("n", &self.graph.n())
            .field("m", &self.graph.m())
            .field("cap", &self.cap())
            .field("total", &self.total())
            .finish()
    }
}

impl<'g> Simulator<'g> {
    /// Creates a simulator for `graph` with bandwidth cap 1 (the
    /// standard CONGEST bound: one message per edge per round).
    pub fn new(graph: &'g Graph) -> Self {
        Simulator::with_core(graph, ExecCore::default())
    }

    /// A simulator starting from `core` (the [`Executor::sub`] path).
    fn with_core(graph: &'g Graph, core: ExecCore) -> Self {
        Simulator {
            graph,
            core,
            validate_activation: false,
            topo: SimTopo::build(graph),
            slab: Slab::new(),
            heads: vec![EdgeQueue::EMPTY; 2 * graph.m()],
            charged: vec![false; 2 * graph.m()],
            inboxes: vec![Vec::new(); graph.n()],
            scratch: SimScratch::default(),
        }
    }

    /// Enables the dense-validation mode (off by default; inherited by
    /// sub-executors): the activation-contract validator plus the
    /// combiner-contract validator.
    ///
    /// In validation mode every round is a **dense** sweep: nodes the
    /// frontier scheduler would skip are *also* ticked, with an empty
    /// inbox, and the run panics if such a node stages a send or stops
    /// being quiescent — the two schedule-observable ways a program can
    /// violate activation correctness (see [`Program`]). A program that
    /// passes a validated run behaves identically under frontier and
    /// dense scheduling, except for deliberate output-only bookkeeping
    /// such as counting its own invocations (which the validator cannot
    /// and does not check).
    ///
    /// Validation additionally audits declared combiners (contract
    /// clause 7): every queue entry keeps the logical messages it
    /// absorbed, and at delivery the merge is re-folded in reverse
    /// order — a non-associative or non-commutative
    /// [`Program::combine`] yields a different survivor and panics. A
    /// merge that changes the combining key panics immediately at
    /// enqueue. Costs the dense `rounds × n` schedule plus the retained
    /// originals — meant for tests, not sweeps.
    pub fn set_validate_activation(&mut self, validate: bool) {
        self.validate_activation = validate;
    }

    /// Runs one program instance per node until global quiescence.
    ///
    /// `make` is called once per node, in node order, with the node id
    /// and the graph (for *local* initialization — a program must only
    /// inspect its own incident edges; the full reference is passed for
    /// ergonomic construction of e.g. shared configuration).
    ///
    /// Returns per-node outputs and this run's statistics; the same
    /// statistics are also accumulated into [`Executor::total`].
    ///
    /// # Panics
    /// Panics if the run exceeds the `max_rounds` livelock guard.
    pub fn run<P, F>(&mut self, mut make: F) -> (Vec<P::Output>, RunStats)
    where
        P: Program,
        F: FnMut(NodeId, &Graph) -> P,
    {
        // Observability (contract clause 8: the round log is read-only
        // bookkeeping). The per-node counters move out of the core for
        // the run so the closures below can borrow them alongside the
        // graph.
        let (mut log, mut node_stats) = self.core.begin_run("sim");
        let n = self.graph.n();
        let cap = self.cap();
        let max_rounds = self.core.max_rounds();
        let topo = &self.topo;
        let mut programs: Vec<P> = (0..n).map(|v| make(v, self.graph)).collect();
        // queue index = 2 * edge_id + dir, dir 0 = u->v. Queue storage
        // is the persistent arena (left drained by the previous run's
        // quiescence, with its high-water capacity intact), moved out
        // of `self` for the duration of the run. The per-run scratch
        // lists are reused the same way: cleared, never reallocated.
        let mut slab = std::mem::take(&mut self.slab);
        let mut heads = std::mem::take(&mut self.heads);
        let mut inboxes = std::mem::take(&mut self.inboxes);
        debug_assert!(heads.iter().all(EdgeQueue::is_empty));
        let SimScratch {
            mut staged,
            mut charged_list,
            mut carry,
            mut delivered,
            mut still_charged,
            mut next_carry,
            mut active_scratch,
            mut per_directed,
        } = std::mem::take(&mut self.scratch);
        staged.clear();
        charged_list.clear();
        carry.clear();
        delivered.clear();
        still_charged.clear();
        next_carry.clear();
        active_scratch.clear();
        let mut stats = RunStats::default();

        let queue_index = |edge_of: &Vec<HashMap<NodeId, EdgeId>>, from: NodeId, to: NodeId| {
            let e = *edge_of[from]
                .get(&to)
                .unwrap_or_else(|| panic!("no edge between {from} and {to}"));
            let edge = self.graph.edge(e);
            if edge.u == from {
                2 * e
            } else {
                2 * e + 1
            }
        };

        // Frontier bookkeeping. Invariant: `charged[qi]` ⇔ queue `qi`
        // is non-empty ⇔ `qi ∈ charged_list`. `carry` holds the nodes
        // that reported non-quiescent at their last activation
        // boundary, in ascending order.
        let receivers = &topo.receivers;
        let mut charged = std::mem::take(&mut self.charged);
        let mut charged_dirty = false;

        let record = log.recording();
        let timed = log.timed();
        if record {
            per_directed.clear();
            per_directed.resize(2 * self.graph.m(), 0);
        }
        log.setup_done();

        // init
        let validate = self.validate_activation;
        for (v, p) in programs.iter_mut().enumerate() {
            let mut ctx = Ctx::new(v, n, 0, self.graph.neighbors(v), &mut staged);
            p.init(&mut ctx);
            for (to, msg) in staged.drain(..) {
                let qi = queue_index(&topo.edge_of, v, to);
                stats.messages += 1;
                if let Some(ns) = node_stats.as_mut() {
                    ns.sent[v] += 1;
                }
                if stage_message(&mut slab, &mut heads[qi], qi, &*p, v, msg, validate) {
                    stats.messages_combined += 1;
                } else if !charged[qi] {
                    charged[qi] = true;
                    charged_list.push(qi);
                    charged_dirty = true;
                }
            }
            if !p.is_quiescent() {
                carry.push(v);
            }
        }

        loop {
            // Contract clause 6: charged edges empty ⇔ all queues
            // empty; carry empty ⇔ every program quiescent.
            if charged_list.is_empty() && carry.is_empty() {
                break;
            }
            stats.rounds += 1;
            if stats.rounds > max_rounds {
                self.core.livelocked();
            }
            // Deliver up to `cap` messages per charged directed edge, in
            // (receiver, directed id) order: per node that is ascending
            // directed id — exactly the dense delivery loop's per-inbox
            // order (clause 4). Leftover charged edges stay sorted, so
            // re-sort only after fresh sends were appended.
            let t_deliver = timed.then(Instant::now);
            if charged_dirty {
                charged_list.sort_unstable_by_key(|&qi| (receivers[qi], qi));
                charged_dirty = false;
            }
            delivered.clear();
            still_charged.clear();
            let mut round_delivered: u64 = 0;
            for &qi in &charged_list {
                let target = receivers[qi];
                if delivered.last().map(|&(v, ())| v) != Some(target) {
                    delivered.push((target, ()));
                }
                let mut popped: u64 = 0;
                for _ in 0..cap {
                    match slab.pop(&mut heads[qi], qi) {
                        Some((_, entry)) => {
                            if validate && entry.originals.len() > 1 {
                                refold_check(&programs[entry.from], &entry);
                            }
                            inboxes[target].push((entry.from, entry.msg));
                            popped += 1;
                        }
                        None => break,
                    }
                }
                round_delivered += popped;
                if record && popped > 0 {
                    per_directed[qi] += popped;
                }
                if let Some(ns) = node_stats.as_mut() {
                    ns.delivered[target] += popped;
                }
                if heads[qi].is_empty() {
                    charged[qi] = false;
                } else {
                    still_charged.push(qi);
                }
            }
            std::mem::swap(&mut charged_list, &mut still_charged);
            let deliver_ns = t_deliver.map_or(0, |t| t.elapsed().as_nanos() as u64);

            // Active set = delivered-to nodes ∪ non-quiescent carryover
            // (clause 5, via the shared merge in `exec`).
            let t_compute = timed.then(Instant::now);
            next_carry.clear();
            let mut active_count: u64 = 0;
            let round_now = stats.rounds;
            let node_stats_ref = &mut node_stats;
            let mut run_node = |v: NodeId, active: bool| {
                let p = &mut programs[v];
                let mut ctx = Ctx::new(v, n, round_now, self.graph.neighbors(v), &mut staged);
                p.round(&mut ctx, &inboxes[v]);
                if !active {
                    // Validation-only path: this node would have been
                    // skipped; its tick must have been a no-op.
                    assert!(
                        staged.is_empty(),
                        "activation contract violated: quiescent node {v} staged a send \
                         in a round with an empty inbox (round {round_now})"
                    );
                    assert!(
                        p.is_quiescent(),
                        "activation contract violated: node {v} stopped being quiescent \
                         without receiving a message (round {round_now})"
                    );
                    return;
                }
                active_count += 1;
                if let Some(ns) = node_stats_ref.as_mut() {
                    ns.invocations[v] += 1;
                }
                for (to, msg) in staged.drain(..) {
                    let qi = queue_index(&topo.edge_of, v, to);
                    stats.messages += 1;
                    if let Some(ns) = node_stats_ref.as_mut() {
                        ns.sent[v] += 1;
                    }
                    if stage_message(&mut slab, &mut heads[qi], qi, &*p, v, msg, validate) {
                        stats.messages_combined += 1;
                    } else if !charged[qi] {
                        charged[qi] = true;
                        charged_list.push(qi);
                        charged_dirty = true;
                    }
                }
                if !p.is_quiescent() {
                    next_carry.push(v);
                }
            };
            if self.validate_activation {
                // Dense sweep: tick skipped nodes too, asserting they
                // are no-ops (see `set_validate_activation`).
                active_scratch.clear();
                crate::exec::for_each_active(&delivered, &carry, (), |v, ()| {
                    active_scratch.push(v)
                });
                let mut next_active = 0usize;
                for v in 0..n {
                    let active = active_scratch.get(next_active) == Some(&v);
                    if active {
                        next_active += 1;
                    }
                    run_node(v, active);
                }
            } else {
                crate::exec::for_each_active(&delivered, &carry, (), |v, ()| run_node(v, true));
            }
            std::mem::swap(&mut carry, &mut next_carry);
            for &(v, ()) in &delivered {
                inboxes[v].clear();
            }
            let compute_ns = t_compute.map_or(0, |t| t.elapsed().as_nanos() as u64);
            // At a round boundary every non-empty queue is in
            // `charged_list` (the invariant above), so the max over it
            // is the max over all 2m queues — the engine's "depth after
            // this round's sends".
            let depth = if record {
                let depths = charged_list.iter().map(|&qi| heads[qi].len() as u64);
                depths.max().unwrap_or(0)
            } else {
                0
            };
            let wall = PhaseWall {
                deliver_ns,
                compute_ns,
                barrier_ns: 0,
            };
            log.round(round_delivered, active_count, depth, wall);
        }

        // Quiescence drained every queue; hand the arena (entry pool,
        // headers, flags, inboxes, scratch lists — all at high-water
        // capacity) back to `self` for the next run.
        self.slab = slab;
        self.heads = heads;
        self.charged = charged;
        self.inboxes = inboxes;
        self.scratch = SimScratch {
            staged,
            charged_list,
            carry,
            delivered,
            still_charged,
            next_carry,
            active_scratch,
            per_directed,
        };
        let per_directed = &self.scratch.per_directed;
        self.core.end_run(log, node_stats, stats, per_directed, 1);
        (programs.into_iter().map(Program::finish).collect(), stats)
    }
}

impl<'g> Executor<'g> for Simulator<'g> {
    type Sub<'h> = Simulator<'h>;

    fn sub<'h>(&self, graph: &'h Graph) -> Simulator<'h> {
        let mut sub = Simulator::with_core(graph, self.core.sub(graph.n()));
        sub.validate_activation = self.validate_activation;
        sub
    }

    fn graph(&self) -> &'g Graph {
        self.graph
    }

    fn core(&self) -> &ExecCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut ExecCore {
        &mut self.core
    }

    fn run<P, F>(&mut self, make: F) -> (Vec<P::Output>, RunStats)
    where
        P: Program + Send,
        P::Output: Send,
        F: FnMut(NodeId, &Graph) -> P,
    {
        Simulator::run(self, make)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each node sends its id to all neighbors once; everyone records
    /// what it hears.
    struct Hello {
        heard: Vec<NodeId>,
    }

    impl Program for Hello {
        type Output = Vec<NodeId>;
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send_all(Message::words(&[ctx.node() as u64]));
        }
        fn round(&mut self, _ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
            for (from, msg) in inbox {
                assert_eq!(msg.word(0), *from as u64);
                self.heard.push(*from);
            }
        }
        fn finish(self) -> Vec<NodeId> {
            self.heard
        }
    }

    #[test]
    fn hello_exchanges_take_one_round() {
        let g = generators::cycle(6, 1);
        let mut sim = Simulator::new(&g);
        let (out, stats) = sim.run(|_, _| Hello { heard: Vec::new() });
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.messages, 2 * g.m() as u64);
        for (v, heard) in out.iter().enumerate() {
            let mut expect: Vec<NodeId> = g.neighbors(v).iter().map(|&(u, _, _)| u).collect();
            let mut got = heard.clone();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    /// Node 0 sends K messages to node 1 over the single edge; with
    /// cap=1 this must take exactly K rounds.
    struct Burst {
        k: usize,
        received: usize,
    }

    impl Program for Burst {
        type Output = usize;
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node() == 0 {
                for i in 0..self.k {
                    ctx.send(1, Message::words(&[i as u64]));
                }
            }
        }
        fn round(&mut self, _ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
            self.received += inbox.len();
        }
        fn finish(self) -> usize {
            self.received
        }
    }

    #[test]
    fn bandwidth_cap_charges_pipelining() {
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        let (out, stats) = sim.run(|_, _| Burst { k: 10, received: 0 });
        assert_eq!(
            stats.rounds, 10,
            "10 messages over one edge at cap 1 = 10 rounds"
        );
        assert_eq!(out[1], 10);

        let mut sim2 = Simulator::new(&g);
        sim2.set_cap(5);
        let (_, stats2) = sim2.run(|_, _| Burst { k: 10, received: 0 });
        assert_eq!(stats2.rounds, 2, "cap 5 halves the rounds");
    }

    #[test]
    fn totals_accumulate_across_runs() {
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        sim.run(|_, _| Burst { k: 3, received: 0 });
        sim.run(|_, _| Burst { k: 4, received: 0 });
        assert_eq!(sim.total().rounds, 7);
        sim.reset_total();
        assert_eq!(sim.total(), RunStats::default());
    }

    #[test]
    #[should_panic(expected = "livelocked")]
    fn livelock_guard_fires() {
        struct Chatter;
        impl Program for Chatter {
            type Output = ();
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_all(Message::words(&[0]));
            }
            fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
                let senders: Vec<NodeId> = inbox.iter().map(|&(from, _)| from).collect();
                for from in senders {
                    ctx.send(from, Message::words(&[0]));
                }
            }
            fn finish(self) {}
        }
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        sim.set_max_rounds(100);
        sim.run(|_, _| Chatter);
    }

    #[test]
    fn non_quiescent_program_keeps_running() {
        /// Counts 5 silent rounds then stops.
        struct Timer {
            left: u32,
        }
        impl Program for Timer {
            type Output = u32;
            fn init(&mut self, _ctx: &mut Ctx<'_>) {}
            fn round(&mut self, _ctx: &mut Ctx<'_>, _inbox: &[(NodeId, Message)]) {
                self.left = self.left.saturating_sub(1);
            }
            fn is_quiescent(&self) -> bool {
                self.left == 0
            }
            fn finish(self) -> u32 {
                self.left
            }
        }
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        let (out, stats) = sim.run(|_, _| Timer { left: 5 });
        assert_eq!(stats.rounds, 5);
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn frontier_skips_idle_nodes() {
        // Burst: node 0 is active only through init (it never receives
        // and is quiescent); node 1 receives in each of the 10 rounds.
        // A dense scheduler would execute 20 invocations; the frontier
        // schedule executes 10 with a peak active set of 1 — while the
        // outputs and RunStats stay those of the dense schedule.
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        let (out, stats) = sim.run(|_, _| Burst { k: 10, received: 0 });
        assert_eq!(stats.rounds, 10);
        assert_eq!(out[1], 10);
        let f = sim.frontier_total();
        assert_eq!(f.invocations, 10, "only the receiver is scheduled");
        assert_eq!(f.peak_active, 1);
        assert_eq!(f.rounds, stats.rounds);
        assert_eq!(f.mean_active(), 1.0);
        sim.reset_total();
        assert_eq!(sim.frontier_total(), FrontierStats::default());
    }

    #[test]
    fn non_quiescent_carryover_is_scheduled_every_round() {
        /// Counts 3 silent rounds then stops (same shape as Timer).
        struct Countdown {
            left: u32,
        }
        impl Program for Countdown {
            type Output = u32;
            fn init(&mut self, _ctx: &mut Ctx<'_>) {}
            fn round(&mut self, _ctx: &mut Ctx<'_>, _inbox: &[(NodeId, Message)]) {
                self.left = self.left.saturating_sub(1);
            }
            fn is_quiescent(&self) -> bool {
                self.left == 0
            }
            fn finish(self) -> u32 {
                self.left
            }
        }
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        let (_, stats) = sim.run(|_, _| Countdown { left: 3 });
        assert_eq!(stats.rounds, 3);
        let f = sim.frontier_total();
        assert_eq!(f.invocations, 6, "both nodes carry over while counting");
        assert_eq!(f.peak_active, 2);
    }

    #[test]
    #[should_panic(expected = "activation contract violated")]
    fn validator_catches_programs_that_rely_on_dense_ticks() {
        /// Claims quiescence but sends after 3 silent ticks — correct
        /// only under a dense schedule; the frontier scheduler would
        /// never give it those ticks.
        struct Sneaky {
            ticks: u32,
        }
        impl Program for Sneaky {
            type Output = ();
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.node() == 0 {
                    // Keep rounds flowing: a 6-message burst to node 1.
                    for i in 0..6 {
                        ctx.send(1, Message::words(&[i]));
                    }
                }
            }
            fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
                if ctx.node() == 2 && inbox.is_empty() {
                    self.ticks += 1;
                    if self.ticks == 3 {
                        ctx.send_all(Message::words(&[99]));
                    }
                }
            }
            fn finish(self) {}
        }
        let g = generators::path(3, 1);
        let mut sim = Simulator::new(&g);
        sim.set_validate_activation(true);
        sim.run(|_, _| Sneaky { ticks: 0 });
    }

    #[test]
    fn validator_is_a_no_op_for_correct_programs() {
        let g = generators::erdos_renyi(24, 0.2, 9, 3);
        let mut plain = Simulator::new(&g);
        let (out_p, stats_p) = plain.run(|_, _| Hello { heard: Vec::new() });
        let mut validated = Simulator::new(&g);
        validated.set_validate_activation(true);
        let (out_v, stats_v) = validated.run(|_, _| Hello { heard: Vec::new() });
        assert_eq!(out_p, out_v);
        assert_eq!(stats_p, stats_v);
        assert_eq!(plain.frontier_total(), validated.frontier_total());
    }

    /// Node 0 stages `k` messages sharing one combining key in a single
    /// burst; the declared min-combiner must collapse them to one
    /// queued survivor (contract clause 7).
    struct KeyedBurst {
        k: u64,
        got: Vec<u64>,
    }

    impl Program for KeyedBurst {
        type Output = Vec<u64>;
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node() == 0 {
                for i in 0..self.k {
                    ctx.send(1, Message::words(&[5, 100 - i]));
                }
            }
        }
        fn round(&mut self, _ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
            for (_, m) in inbox {
                self.got.push(m.word(1));
            }
        }
        fn combine_key(&self, msg: &Message) -> Option<crate::message::Word> {
            Some(msg.word(0))
        }
        fn combine(&self, queued: &Message, incoming: &Message) -> Message {
            Message::words(&[queued.word(0), queued.word(1).min(incoming.word(1))])
        }
        fn finish(self) -> Vec<u64> {
            self.got
        }
    }

    #[test]
    fn combiner_collapses_a_same_key_burst() {
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        let (out, stats) = sim.run(|_, _| KeyedBurst {
            k: 10,
            got: Vec::new(),
        });
        assert_eq!(stats.messages, 10, "every send is a logical message");
        assert_eq!(stats.messages_combined, 9, "nine merged into the first");
        assert_eq!(stats.messages_delivered(), 1);
        assert_eq!(stats.rounds, 1, "the backlog collapsed to one round");
        assert_eq!(out[1], vec![91], "survivor carries the key-wise min");
    }

    #[test]
    fn validation_mode_accepts_a_lawful_combiner() {
        let g = generators::path(4, 1);
        let mut plain = Simulator::new(&g);
        let (out_p, stats_p) = plain.run(|_, _| KeyedBurst {
            k: 6,
            got: Vec::new(),
        });
        let mut validated = Simulator::new(&g);
        validated.set_validate_activation(true);
        let (out_v, stats_v) = validated.run(|_, _| KeyedBurst {
            k: 6,
            got: Vec::new(),
        });
        assert_eq!(out_p, out_v);
        assert_eq!(stats_p, stats_v);
        assert!(stats_v.messages_combined > 0, "the combiner actually fired");
    }

    #[test]
    #[should_panic(expected = "not associative/commutative")]
    fn validation_mode_catches_an_order_sensitive_combiner() {
        /// Merge = word-wise difference: commutes with nothing.
        struct BadCombiner;
        impl Program for BadCombiner {
            type Output = ();
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.node() == 0 {
                    ctx.send(1, Message::words(&[5, 40]));
                    ctx.send(1, Message::words(&[5, 15]));
                }
            }
            fn round(&mut self, _ctx: &mut Ctx<'_>, _inbox: &[(NodeId, Message)]) {}
            fn combine_key(&self, msg: &Message) -> Option<crate::message::Word> {
                Some(msg.word(0))
            }
            fn combine(&self, queued: &Message, incoming: &Message) -> Message {
                Message::words(&[
                    queued.word(0),
                    queued.word(1).saturating_sub(incoming.word(1)),
                ])
            }
            fn finish(self) {}
        }
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        sim.set_validate_activation(true);
        sim.run(|_, _| BadCombiner);
    }

    #[test]
    #[should_panic(expected = "merge changed the combining key")]
    fn validation_mode_catches_a_key_unstable_combiner() {
        struct KeyDrifter;
        impl Program for KeyDrifter {
            type Output = ();
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.node() == 0 {
                    ctx.send(1, Message::words(&[5, 1]));
                    ctx.send(1, Message::words(&[5, 2]));
                }
            }
            fn round(&mut self, _ctx: &mut Ctx<'_>, _inbox: &[(NodeId, Message)]) {}
            fn combine_key(&self, msg: &Message) -> Option<crate::message::Word> {
                Some(msg.word(0))
            }
            fn combine(&self, queued: &Message, incoming: &Message) -> Message {
                Message::words(&[queued.word(0) + 1, queued.word(1) + incoming.word(1)])
            }
            fn finish(self) {}
        }
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = Simulator::new(&g);
        sim.set_validate_activation(true);
        sim.run(|_, _| KeyDrifter);
    }

    use crate::program::FrontierStats;
    use lightgraph::generators;
    use lightgraph::Graph;
}
