//! The engine-agnostic per-node interface.
//!
//! A CONGEST algorithm is written once against [`Program`] and [`Ctx`]
//! and can then be executed by any conforming engine: the sequential
//! [`Simulator`](crate::Simulator) in this crate, or the parallel
//! engine in `crates/engine`. Both must obey the same contract — see
//! [`Executor`](crate::Executor) — and produce bit-identical outputs
//! and statistics.

use crate::message::{Message, Word};
use lightgraph::{EdgeId, NodeId, Weight};

/// Round and message counts for one run (or accumulated over several —
/// see [`Executor::total`](crate::Executor::total)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of communication rounds executed.
    pub rounds: u64,
    /// Number of logical messages sent (one per [`Ctx::send`]). Without
    /// a combiner every sent message is also delivered, so this equals
    /// the delivered count; with one (contract clause 7), the
    /// [`RunStats::messages_combined`] of them were merged into a
    /// co-queued message instead of crossing the edge individually.
    pub messages: u64,
    /// Messages absorbed by per-edge combining instead of being
    /// delivered individually (see [`Program::combine_key`]). Always 0
    /// for programs without a combiner.
    pub messages_combined: u64,
}

impl RunStats {
    /// Adds another run's counts into this one.
    pub fn absorb(&mut self, other: RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.messages_combined += other.messages_combined;
    }

    /// Messages physically delivered to inboxes: every sent message
    /// that was not merged away by a combiner.
    pub fn messages_delivered(&self) -> u64 {
        self.messages - self.messages_combined
    }

    /// The difference `self - start` — phase accounting for composite
    /// algorithms (`let start = sim.total(); …; sim.total().since(start)`).
    pub fn since(&self, start: RunStats) -> RunStats {
        RunStats {
            rounds: self.rounds - start.rounds,
            messages: self.messages - start.messages,
            messages_combined: self.messages_combined - start.messages_combined,
        }
    }
}

/// Frontier-scheduling statistics for one run (or accumulated — see
/// [`Executor::frontier_total`](crate::Executor::frontier_total)).
///
/// Engines schedule a node in a round only while it is *active* (see
/// the activation contract in [`Executor`](crate::Executor)); these
/// counters expose how sparse that schedule actually was. They are
/// bookkeeping about the engine, not about the simulated algorithm:
/// `RunStats` are contract-pinned and engine-identical, and so are
/// these (the active set is determined by delivered messages and
/// quiescence reports, both deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Number of [`Program::round`] invocations executed. A dense
    /// scheduler would execute `rounds * n`; the gap is the saved work.
    pub invocations: u64,
    /// Largest active-node count in any single round.
    pub peak_active: u64,
    /// Rounds actually executed by the scheduler. Unlike
    /// `RunStats::rounds` totals, this never includes analytically
    /// charged rounds (see [`Executor::charge`](crate::Executor::charge)),
    /// so it is the honest denominator for [`FrontierStats::mean_active`].
    pub rounds: u64,
}

impl FrontierStats {
    /// Accumulates another run's counters (invocations and rounds add,
    /// peaks max).
    pub fn absorb(&mut self, other: FrontierStats) {
        self.invocations += other.invocations;
        self.peak_active = self.peak_active.max(other.peak_active);
        self.rounds += other.rounds;
    }

    /// Mean active-node count per executed round.
    pub fn mean_active(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.invocations as f64 / self.rounds as f64
        }
    }
}

/// The per-node interface handed to [`Program`] callbacks.
///
/// A `Ctx` deliberately exposes only what a CONGEST processor knows
/// locally: its own id, `n`, the current round, and its incident edges.
pub struct Ctx<'a> {
    node: NodeId,
    n: usize,
    round: u64,
    neighbors: &'a [(NodeId, Weight, EdgeId)],
    staged: &'a mut Vec<(NodeId, Message)>,
}

impl<'a> Ctx<'a> {
    /// Creates a context. Only execution engines call this; programs
    /// always receive a ready-made `Ctx`.
    ///
    /// `staged` collects this node's outgoing `(to, message)` pairs for
    /// the engine to drain after the callback returns.
    #[doc(hidden)]
    pub fn new(
        node: NodeId,
        n: usize,
        round: u64,
        neighbors: &'a [(NodeId, Weight, EdgeId)],
        staged: &'a mut Vec<(NodeId, Message)>,
    ) -> Self {
        Ctx {
            node,
            n,
            round,
            neighbors,
            staged,
        }
    }

    /// This processor's vertex id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of vertices in the network (globally known, as usual in
    /// CONGEST algorithm statements).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current round (0 during [`Program::init`]).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Incident edges: `(neighbor, weight, edge id)`.
    pub fn neighbors(&self) -> &[(NodeId, Weight, EdgeId)] {
        self.neighbors
    }

    /// Degree of this vertex.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Enqueues `msg` on the edge towards `to`. The message is delivered
    /// in a later round, once the edge's earlier traffic has drained
    /// (at most [`Executor::cap`](crate::Executor::cap) messages cross
    /// per round).
    ///
    /// # Panics
    /// Panics if `to` is not a neighbor — a CONGEST processor can only
    /// ever address its neighbors.
    pub fn send(&mut self, to: NodeId, msg: Message) {
        debug_assert!(
            self.neighbors.iter().any(|&(v, _, _)| v == to),
            "node {} tried to send to non-neighbor {}",
            self.node,
            to
        );
        self.staged.push((to, msg));
    }

    /// Sends a copy of `msg` to every neighbor, in adjacency order.
    pub fn send_all(&mut self, msg: Message) {
        for &(v, _, _) in self.neighbors {
            self.staged.push((v, msg.clone()));
        }
    }
}

/// A per-node state machine executed by an [`Executor`](crate::Executor).
///
/// One instance exists per vertex. `init` runs before the first round;
/// `round` runs in every round in which the node is *active* (see
/// below). Execution stops when every edge queue is empty and every
/// program reports [`Program::is_quiescent`].
///
/// # Activation contract
///
/// Engines schedule rounds by frontier: a node is **active** in a round
/// iff it received at least one message this round, or it reported
/// `is_quiescent() == false` at its previous activation boundary (after
/// `init`, or after its most recent `round` call). `round` is invoked
/// exactly for the active nodes; inactive nodes are skipped entirely.
///
/// For skipping to be unobservable, every program must be
/// **activation-correct**: while `is_quiescent()` returns `true`, a
/// `round` call with an empty inbox must be a no-op — no state change,
/// no sends. Put differently, a quiescent node may only be woken by a
/// message; a node that intends to act on its own in a future round
/// (timers, counters, multi-round holds) must report `false` from
/// `is_quiescent` until it is done, which keeps it scheduled every
/// round exactly as a dense scheduler would.
///
/// `is_quiescent` is consulted once after `init` (for every node) and
/// once after each `round` invocation (for that node); it takes `&self`
/// and must be a pure function of the program state — the cached answer
/// of a skipped node is reused until its next activation.
///
/// # Per-edge message combining (opt-in)
///
/// A program whose message streams carry *superseding* information —
/// relaxation-style distance updates, idempotent marks, monotone table
/// pushes — may declare a **combiner** by overriding
/// [`Program::combine_key`] and [`Program::combine`]. When a staged
/// message's key matches a message still queued (undelivered) on the
/// same directed edge, engines merge the two in place instead of
/// queueing a second copy; the merged message keeps the earlier
/// message's queue position (see clause 7 of the
/// [`Executor`](crate::Executor) contract). This shrinks delivered
/// message volume — and, when the bandwidth cap was the bottleneck,
/// the backlog and therefore the round count — at the source.
///
/// A declared combiner must be **combine-correct**:
///
/// * `combine` is associative and commutative per key, and
///   *key-stable*: `combine_key(combine(a, b)) == combine_key(a)`
///   whenever `combine_key(a) == combine_key(b)`. Both are pure
///   functions of the message (and immutable program configuration).
/// * the merged message must *dominate* the messages it absorbed: the
///   program's final outputs must not depend on receiving the absorbed
///   messages individually. Canonically the merge keeps a componentwise
///   minimum/maximum, so delivering only the survivor leads the
///   receiver to the same fixed point.
///
/// Combining never affects programs that do not opt in, and it is
/// applied identically by every conforming engine, so outputs,
/// [`RunStats`], and [`FrontierStats`] remain bit-identical *across
/// engines*. Relative to an uncombined run of the same program: when
/// the cap does not bind (every same-round batch would have been
/// delivered together anyway), combining is observable only in
/// [`RunStats::messages_combined`]; when the cap binds, queues drain
/// in fewer rounds — the intended speedup — and a combine-correct
/// program reaches the same outputs along the compressed schedule.
/// The simulator's validation mode
/// ([`Simulator::set_validate_activation`](crate::Simulator::set_validate_activation))
/// re-folds every merged delivery in reverse order and panics when the
/// result differs — catching non-associative or non-commutative merges.
pub trait Program {
    /// Per-node result collected by [`Executor::run`](crate::Executor::run).
    type Output;

    /// Called once before round 1; may send messages.
    fn init(&mut self, ctx: &mut Ctx<'_>);

    /// Called in each round in which this node is active, with this
    /// round's delivered messages (possibly empty, when the node is
    /// carried over as non-quiescent), as `(sender, message)` pairs
    /// ordered deterministically by edge.
    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]);

    /// Whether this node is passive (waiting for messages). A node that
    /// intends to act in a future round despite an empty inbox must
    /// return `false`, otherwise it is skipped until the next message
    /// arrives (and the simulation may stop early). See the trait docs
    /// for the full activation contract.
    fn is_quiescent(&self) -> bool {
        true
    }

    /// Combining key for `msg` on its outgoing edge, or `None` (the
    /// default) to always deliver the message verbatim. Returning
    /// `Some(k)` opts the message into per-edge combining: if a message
    /// with the same key is still queued on the same directed edge, the
    /// two are merged with [`Program::combine`]. See the trait docs for
    /// the combine-correctness obligations.
    fn combine_key(&self, msg: &Message) -> Option<Word> {
        let _ = msg;
        None
    }

    /// Merges `incoming` into the co-queued `queued` message carrying
    /// the same [`Program::combine_key`]. Must be associative,
    /// commutative, and key-stable (see the trait docs); the default
    /// panics, so it must be overridden whenever `combine_key` can
    /// return `Some`.
    fn combine(&self, queued: &Message, incoming: &Message) -> Message {
        let _ = (queued, incoming);
        unreachable!("Program::combine must be overridden when combine_key returns Some")
    }

    /// Consumes the program and yields its output after the run.
    fn finish(self) -> Self::Output;
}
