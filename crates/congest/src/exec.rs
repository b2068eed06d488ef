//! The [`Executor`] abstraction: anything that can run a CONGEST
//! program to quiescence.
//!
//! Two engines implement it today — the sequential
//! [`Simulator`](crate::Simulator) in this crate, and the parallel
//! sharded engine in `crates/engine`. The trait pins down the exact
//! observable contract an engine must honor so that algorithms (and the
//! paper's round-count experiments) behave identically on both. Both
//! embed one [`ExecCore`] — configuration, cumulative totals and
//! congestion peaks, and the per-run [`RoundLog`] — so the bookkeeping
//! around the contract is written once.
//!
//! **Determinism contract.** Each clause names its conformance tests
//! inline (`prop_*` live in `crates/engine/tests/equivalence.rs`,
//! plain names in the unit-test module of the file that owns the
//! mechanism); a change that touches a clause must keep its named
//! tests green, and a new engine must pass all of them.
//! 1. `make` is invoked once per node, in increasing node order, on the
//!    calling thread. *Conformance:* every `prop_*_identical` case
//!    (node-keyed outputs would drift under any other order);
//!    `prop_bellman_ford_identical` is the simplest.
//! 2. [`Program::init`] effects are observed as if nodes ran in
//!    increasing node order. *Conformance:*
//!    `matches_simulator_on_flood` (`crates/engine/src/engine.rs`).
//! 3. Per directed edge, messages form a FIFO: they are delivered in
//!    the order they were staged, at most [`Executor::cap`] per round.
//!    *Conformance:* `per_edge_fifo_order_is_preserved` and
//!    `bandwidth_cap_pipelines_like_simulator`
//!    (`crates/engine/src/engine.rs`); `prop_cap_ablation_identical`
//!    sweeps caps.
//! 4. A round's inbox at node `v` is ordered by edge id (and, per edge,
//!    direction `u→v` before `v→u`), exactly matching the sequential
//!    simulator's delivery loop. *Conformance* (each fails when every
//!    inbox is delivered in reverse edge order):
//!    `prop_chain_relays_identical` and `prop_reactivation_identical`
//!    (per-node outputs), `prop_combiner_aware_collectives_identical` and
//!    `prop_broadcast_and_convergecast_identical` (the eager
//!    convergecast's in-flight merges follow arrival order; a broadcast
//!    inbox holds one sender, so the broadcast half cannot see it), and
//!    `prop_euler_tour_identical`.
//! 5. **Activation scheduling.** A node is *active* in round `r` iff
//!    its round-`r` inbox is non-empty, or it reported
//!    `is_quiescent() == false` at its previous activation boundary
//!    (after [`Program::init`], or after its most recent
//!    [`Program::round`] call). Engines invoke `round` exactly for the
//!    active nodes and may skip inactive nodes entirely; messages are
//!    still delivered on every edge with queued traffic regardless of
//!    receiver activity (delivery is what *makes* a receiver active).
//!    [`Program::is_quiescent`] is evaluated once per activation
//!    boundary and cached in between — programs must be
//!    activation-correct (see [`Program`]) for skipping to be
//!    unobservable. Both engines schedule through the shared
//!    [`for_each_active`] merge. *Conformance:*
//!    `prop_reactivation_identical`, `prop_chain_relays_identical`
//!    (thin frontiers crawling across shard cuts) and
//!    `prop_mst_frontier_totals_identical`; the activation validator
//!    itself is pinned by
//!    `validator_catches_programs_that_rely_on_dense_ticks`
//!    (`crates/congest/src/sim.rs`).
//! 6. Execution stops at the first round boundary where all queues are
//!    empty and every program is quiescent (equivalently: the charged
//!    edge set and the non-quiescent carryover set are both empty);
//!    [`RunStats`] count the sent messages and executed rounds.
//!    *Conformance:* `prop_slt_identical` (composite totals across
//!    phases) and `non_quiescent_program_keeps_running`
//!    (`crates/congest/src/sim.rs`).
//! 7. **Per-edge message combining.** When the program declares a
//!    combiner ([`Program::combine_key`]), a staged message whose key
//!    matches a message still queued on the same directed edge is
//!    merged into it *at enqueue time* via [`Program::combine`]; the
//!    merged message keeps the earlier message's queue position, so at
//!    most one message per `(directed edge, key)` is ever queued.
//!    Engines must route every staging through the shared arena slab
//!    ([`Slab::stage`](crate::slab::Slab::stage)) so the merge
//!    semantics cannot drift — and so queue storage stays
//!    allocation-free in steady state (see [`crate::slab`]).
//!    Absorbed messages count in `RunStats::messages` (they were
//!    sent) and in `RunStats::messages_combined` (they were not
//!    delivered individually); the physical delivery volume is
//!    `RunStats::messages_delivered()`. Combining is a deterministic
//!    function of the execution, exactly like the clause-5 active sets:
//!    a combine-correct program (see [`Program`]) produces the same
//!    outputs, `RunStats`, and [`FrontierStats`] on every conforming
//!    engine — and where the bandwidth cap was the round bottleneck,
//!    the shortened backlog legitimately shortens the run.
//!    *Conformance:* `prop_combining_preserves_relaxation_outputs`,
//!    `prop_combining_with_slack_cap_is_invisible`, and
//!    `combiner_matches_simulator_bit_for_bit`
//!    (`crates/engine/src/engine.rs`); the merge/position semantics
//!    themselves are pinned by the unit tests in
//!    `crates/congest/src/slab.rs`.
//! 8. **Observer neutrality.** Observability (the [`crate::obs`]
//!    subsystem: phase spans, per-node [`NodeStats`] recording, phase
//!    timing, trace sinks) is read-only: with observers attached or
//!    detached, per-node outputs, [`RunStats`], [`FrontierStats`],
//!    [`Peaks`], and every other deterministic quantity (the trace's
//!    per-round `round`/`delivered`/`active` fields, per-node
//!    histograms, span-tree statistics) are bit-identical — across
//!    runs *and* across conforming engines. Only wall-clock fields
//!    (`wall_ms`-like values, `*_ns` phase times) may differ between
//!    runs; anything pinning observability output must scrub exactly
//!    those. Observers must never deliver, reorder, combine, or drop a
//!    message, and never change the active set. Observers are
//!    configuration, so [`Executor::sub`] executors inherit them.
//!    *Conformance:* `prop_node_histograms_sum_and_observers_are_neutral`;
//!    the trace's per-round series across engines and thread counts by
//!    `report_series_identical_across_threads`
//!    (`crates/engine/src/engine.rs`); peaks over runs and
//!    sub-executors by `peaks_cover_every_run_and_sub_executor`
//!    (`crates/engine/src/engine.rs`); span trees by
//!    `chain_slt_span_tree_identical_across_threads`;
//!    inheritance is pinned on both engines by
//!    `sub_executors_inherit_configuration`
//!    (`crates/engine/src/engine.rs`).
//!
//! **Plan reuse note.** Clauses 1–8 make every observable quantity a
//! pure function of `(graph, programs, cap)` — plus, for a stressed
//! engine, the stress seed that picked the shard plan. Nothing
//! observable depends on *when or how often* an engine derived its
//! internal structure from those inputs. Each executor therefore builds
//! what it derives from the topology alone — routing maps, the CSR
//! index, and the engine's unstressed shard bounds and node owners —
//! once, in its constructor, and reuses it for every run; a
//! sub-executor builds its own for its own graph, and a stressed run
//! cuts a plan from its seed and drops it after the run. Run-scoped
//! storage (queue arenas, scratch lists) is reused across runs as
//! well, and must start each run logically empty: quiescence drains
//! every queue, and nothing reads a previous run's bytes. The engine's
//! side is `crates/engine/src/plan.rs`. *Conformance:*
//! `crates/engine/tests/plan_cache.rs` (warm vs cold bit-identity
//! across threads and stress seeds) and the composite-workload case of
//! `crates/engine/tests/alloc_guard.rs` (no per-sub-run setup
//! allocations once warmed).
//!
//! Any engine honoring 1–8 produces bit-identical per-node outputs and
//! `RunStats` for deterministic programs, which is what lets the
//! parallel engine stand in for the simulator in experiments that
//! report the paper's round counts. Clauses 3–5 are
//! schedule-independent: per-edge FIFO order is the unique sender's
//! staged order, inbox order is the ascending directed-id walk, and the
//! active set is a function of deliveries and quiescence reports. None
//! of them observes which worker ran a shard, or in what order the
//! shards of a phase ran, so shard cuts, steal order and thread count
//! are invisible. Because the active set of clause 5 is itself
//! determined by delivered edges and quiescence reports, the
//! [`FrontierStats`] bookkeeping (invocation counts, peak active set)
//! is engine-identical too. The Simulator in this crate is the
//! semantics oracle for frontier scheduling: its per-round active set
//! is built from the edges that delivered this round plus the
//! non-quiescent carryover, with inbox assembly still in ascending
//! directed-edge-id order.
//!
//! **What conformance tests must check.** The contract is verified by
//! the property suite in `crates/engine/tests/equivalence.rs`, whose
//! helpers follow three conventions any new conformance test should
//! copy:
//!
//! * run the algorithm fresh on each executor under test (one
//!   [`Simulator`](crate::Simulator), then one engine per thread
//!   count), so cumulative [`Executor::total`] counters are directly
//!   comparable;
//! * assert *full* per-node outputs field-by-field, not summary
//!   metrics — clauses 1–4 promise bit-identical state, so any drift
//!   is a violation rather than tolerable noise;
//! * assert `RunStats` equality for the algorithm's own stats **and**
//!   the executor totals, because clause 5 covers every intermediate
//!   `run` invocation of a composite algorithm, not just the last.

use crate::obs::{NodeStats, Peaks, PhaseWall, RoundTrace, SharedTraceSink};
use crate::program::{FrontierStats, Program, RunStats};
use lightgraph::{Graph, NodeId};
use std::time::Instant;

/// An engine that runs one [`Program`] instance per node until global
/// quiescence, with cumulative round accounting across runs.
///
/// An engine implements [`Executor::sub`], [`Executor::graph`],
/// [`Executor::run`] and the [`ExecCore`] accessors; the bookkeeping
/// and observability methods are implemented once, here, over that
/// core.
///
/// **Borrow contract.** The executor borrows its graph for `'g`, and
/// the graph outlives it: [`Executor::graph`] hands out `&'g Graph`,
/// not a borrow of the executor, so a composite algorithm reads the
/// one input graph across all of its `&mut` runs without copying it.
/// [`Executor::run`] needs only `P: Send`, not `'static`, so programs
/// may borrow caller data (per-node slices, closures over locals) for
/// the length of the run. Generic entry points name the lifetime:
/// `&mut impl Executor<'g>` or `E: Executor<'g>`.
pub trait Executor<'g> {
    /// The same engine kind instantiated over another (sub)graph,
    /// inheriting configuration such as the bandwidth cap. Lets
    /// composite algorithms recurse into subgraphs without committing
    /// to a concrete engine.
    type Sub<'h>: Executor<'h>;

    /// Creates a fresh executor of the same kind over `graph`,
    /// inheriting this executor's configuration (see [`ExecCore::sub`])
    /// but with zeroed statistics.
    fn sub<'h>(&self, graph: &'h Graph) -> Self::Sub<'h>;

    /// The underlying graph, with the graph's own lifetime: the
    /// reference stays usable across later `&mut` calls on the
    /// executor.
    ///
    /// ```
    /// use congest::tree::build_bfs_tree;
    /// use congest::{Executor, Simulator};
    /// use lightgraph::generators;
    ///
    /// fn f<'g>(exec: &mut impl Executor<'g>) -> (usize, u64) {
    ///     let g = exec.graph();
    ///     let (tree, _) = build_bfs_tree(exec, 0);
    ///     (g.n(), tree.height())
    /// }
    ///
    /// let g = generators::path(5, 1);
    /// assert_eq!(f(&mut Simulator::new(&g)), (5, 4));
    /// ```
    fn graph(&self) -> &'g Graph;

    /// The executor's configuration and cumulative accounting.
    fn core(&self) -> &ExecCore;

    /// Mutable access to [`Executor::core`].
    fn core_mut(&mut self) -> &mut ExecCore;

    /// Runs one program instance per node until global quiescence; see
    /// the module docs for the determinism contract.
    ///
    /// `P: Send` (and `Output: Send`) because a conforming engine may
    /// execute node shards on worker threads; `make` itself always runs
    /// on the calling thread, in node order.
    ///
    /// # Panics
    /// Panics if the run exceeds the `max_rounds` livelock guard.
    fn run<P, F>(&mut self, make: F) -> (Vec<P::Output>, RunStats)
    where
        P: Program + Send,
        P::Output: Send,
        F: FnMut(NodeId, &Graph) -> P;

    /// Messages allowed per directed edge per round (default 1, the
    /// standard CONGEST bound).
    fn cap(&self) -> usize {
        self.core().cap
    }

    /// Sets the bandwidth cap (`>= 1`). Useful for "CONGEST with
    /// larger messages" ablations.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    fn set_cap(&mut self, cap: usize) {
        assert!(cap >= 1, "bandwidth cap must be at least 1");
        self.core_mut().cap = cap;
    }

    /// Sets the livelock guard (default 50 million rounds).
    fn set_max_rounds(&mut self, max_rounds: u64) {
        self.core_mut().max_rounds = max_rounds;
    }

    /// Cumulative statistics over every run so far.
    fn total(&self) -> RunStats {
        self.core().total
    }

    /// Cumulative frontier-scheduling statistics over every run so far
    /// (invocations add up; the peak is the max over runs). Like
    /// [`Executor::total`], engine-identical for conforming engines.
    fn frontier_total(&self) -> FrontierStats {
        self.core().frontier
    }

    /// Congestion peaks over every run so far and every sub-executor
    /// booked with [`Executor::charge_sub`]: the most messages delivered
    /// in one round, and the longest any directed-edge queue grew.
    /// Engine-identical for conforming engines.
    fn peaks(&self) -> Peaks {
        self.core().peaks
    }

    /// Resets the cumulative statistics ([`Executor::total`],
    /// [`Executor::frontier_total`] and [`Executor::peaks`]).
    fn reset_total(&mut self) {
        let core = self.core_mut();
        core.total = RunStats::default();
        core.frontier = FrontierStats::default();
        core.peaks = Peaks::default();
    }

    /// Adds externally-accounted rounds to the cumulative counter.
    ///
    /// Purely analytical charges (rounds a phase *would* cost, with no
    /// programs actually run) have no frontier or per-node counterpart
    /// — the mean active width is defined over executed rounds only. A
    /// real sub-executor run is booked with [`Executor::charge_sub`].
    fn charge(&mut self, stats: RunStats) {
        self.core_mut().total.absorb(stats);
    }

    /// Books a sub-executor's runs into this executor: its
    /// [`Executor::total`], its [`Executor::frontier_total`]
    /// (invocations add, peaks max), its [`Executor::peaks`] (maxima)
    /// and, while both record them, its [`Executor::node_stats`]. The
    /// sub-executor's graph must share this executor's node-id space (a
    /// subgraph over the same vertices), as [`NodeStats::absorb`]
    /// requires.
    fn charge_sub<'h>(&mut self, sub: &impl Executor<'h>) {
        let core = self.core_mut();
        core.total.absorb(sub.total());
        core.frontier.absorb(sub.frontier_total());
        core.peaks.absorb(sub.peaks());
        if let (Some(ns), Some(other)) = (core.node_stats.as_mut(), sub.node_stats()) {
            ns.absorb(other);
        }
    }

    /// Enables or disables per-node accounting ([`NodeStats`]):
    /// per-node sent/delivered/invocation counters, accumulated across
    /// runs like [`Executor::total`]. Off by default (the `3 × n`
    /// counter vector is allocated lazily, on enable); enabling resets
    /// the counters. Recording is inherited by [`Executor::sub`]
    /// executors (which count in their own node-id space) and is
    /// observer-neutral (contract clause 8).
    fn set_record_node_stats(&mut self, record: bool) {
        let n = self.graph().n();
        self.core_mut().node_stats = record.then(|| NodeStats::new(n));
    }

    /// The per-node counters accumulated so far, when
    /// [`Executor::set_record_node_stats`] is enabled.
    fn node_stats(&self) -> Option<&NodeStats> {
        self.core().node_stats.as_ref()
    }

    /// Enables or disables per-phase wall sampling: a few clock reads
    /// per round, summed into the process-wide accumulator
    /// [`crate::obs::phase_wall_ns`], which a caller reads as deltas
    /// around a workload — sub-executor runs included. Implied by
    /// tracing; inherited by sub-executors; observer-neutral (contract
    /// clause 8).
    fn set_time_phases(&mut self, time: bool) {
        self.core_mut().time_phases = time;
    }

    /// Attaches (or detaches, with `None`) a profiling trace sink; one
    /// [`RoundTrace`] record is pushed per executed round. Inherited by
    /// sub-executors; observer-neutral (contract clause 8).
    fn set_trace(&mut self, sink: Option<SharedTraceSink>) {
        self.core_mut().trace = sink;
    }
}

/// The configuration and cumulative accounting every [`Executor`]
/// shares, embedded by both engines: the bandwidth cap and livelock
/// guard, the observer switches (phase timing, trace sink, per-node
/// stats), and the totals over every run so far (`RunStats`,
/// `FrontierStats`, [`Peaks`]).
///
/// A run brackets its rounds with [`ExecCore::begin_run`] and
/// [`ExecCore::end_run`]; in between it books every executed round
/// once in the returned [`RoundLog`].
#[derive(Debug)]
pub struct ExecCore {
    cap: usize,
    max_rounds: u64,
    time_phases: bool,
    trace: Option<SharedTraceSink>,
    node_stats: Option<NodeStats>,
    total: RunStats,
    frontier: FrontierStats,
    peaks: Peaks,
}

impl Default for ExecCore {
    /// Cap 1, a 50-million-round livelock guard, every observer off.
    fn default() -> Self {
        ExecCore {
            cap: 1,
            max_rounds: 50_000_000,
            time_phases: false,
            trace: None,
            node_stats: None,
            total: RunStats::default(),
            frontier: FrontierStats::default(),
            peaks: Peaks::default(),
        }
    }
}

impl ExecCore {
    /// The core of a sub-executor over an `n`-node graph: inherits the
    /// cap, the round guard, phase timing, the trace sink and node-stats
    /// recording (zeroed, in the sub-graph's node-id space); every total
    /// starts at zero.
    pub fn sub(&self, n: usize) -> ExecCore {
        ExecCore {
            cap: self.cap,
            max_rounds: self.max_rounds,
            time_phases: self.time_phases,
            trace: self.trace.clone(),
            node_stats: self.node_stats.as_ref().map(|_| NodeStats::new(n)),
            ..ExecCore::default()
        }
    }

    /// The livelock guard: a run may execute at most this many rounds.
    pub fn max_rounds(&self) -> u64 {
        self.max_rounds
    }

    /// Opens one run's books, at run entry: draws a trace run id
    /// labelled `engine` (`"sim"` or `"parallel"`) when a sink is
    /// attached, and moves the per-node counters out for the run
    /// (`None` while node stats are off). The run's setup wall is
    /// measured from here to [`RoundLog::setup_done`].
    pub fn begin_run(&mut self, engine: &str) -> (RoundLog, Option<NodeStats>) {
        let start = Instant::now();
        let trace = self
            .trace
            .as_ref()
            .map(|s| (s.clone(), s.lock().expect("trace sink").begin_run(engine)));
        let log = RoundLog {
            start,
            timed: trace.is_some() || self.time_phases,
            trace,
            frontier: FrontierStats::default(),
            peaks: Peaks::default(),
            delivered: 0,
            wall: PhaseWall::default(),
        };
        (log, self.node_stats.take())
    }

    /// Closes a quiesced run's books: absorbs its statistics, frontier
    /// and peaks into the totals, adds its phase wall to the
    /// process-wide accumulator when timed, and hands the per-node
    /// counters back.
    pub fn end_run(&mut self, log: RoundLog, node_stats: Option<NodeStats>, stats: RunStats) {
        debug_assert_eq!(
            log.frontier.rounds, stats.rounds,
            "one booked round per round"
        );
        debug_assert_eq!(
            log.delivered,
            stats.messages_delivered(),
            "staged = delivered + combined at quiescence"
        );
        self.total.absorb(stats);
        self.frontier.absorb(log.frontier);
        self.peaks.absorb(log.peaks);
        self.node_stats = node_stats;
        if log.timed {
            crate::obs::add_phase_wall_ns(log.wall);
        }
    }

    /// Aborts a run that hit the livelock guard.
    pub fn livelocked(&self) -> ! {
        panic!(
            "CONGEST run exceeded {} rounds — livelocked program?",
            self.max_rounds
        )
    }
}

/// One run's per-round books, opened by [`ExecCore::begin_run`]. Each
/// executed round is booked once, by [`RoundLog::round`]: that derives
/// the run's [`FrontierStats`] and [`Peaks`], pushes the [`RoundTrace`]
/// record when a sink is attached, and sums the phase wall. The log
/// allocates nothing.
#[derive(Debug)]
pub struct RoundLog {
    start: Instant,
    timed: bool,
    trace: Option<(SharedTraceSink, u64)>,
    frontier: FrontierStats,
    peaks: Peaks,
    delivered: u64,
    wall: PhaseWall,
}

impl RoundLog {
    /// Whether the run samples phase wall time.
    pub fn timed(&self) -> bool {
        self.timed
    }

    /// Rounds booked so far.
    pub fn rounds(&self) -> u64 {
        self.frontier.rounds
    }

    /// Ends the per-run setup interval (run entry to the first `init`)
    /// and adds it to the process-wide setup wall
    /// ([`crate::obs::setup_wall_ns`]).
    pub fn setup_done(&self) {
        crate::obs::add_setup_ns(self.start.elapsed().as_nanos() as u64);
    }

    /// Books the next round: `delivered` messages, `active` invoked
    /// nodes, the longest `queue` its delivery visited (read before
    /// popping), and its phase `wall`.
    pub fn round(&mut self, delivered: u64, active: u64, queue: u64, wall: PhaseWall) {
        let f = &mut self.frontier;
        f.rounds += 1;
        f.invocations += active;
        f.peak_active = f.peak_active.max(active);
        self.peaks.absorb(Peaks {
            round_messages: delivered,
            queue_depth: queue,
        });
        self.delivered += delivered;
        if let Some((sink, run)) = &self.trace {
            sink.lock().expect("trace sink").push_round(
                *run,
                RoundTrace {
                    round: f.rounds,
                    delivered,
                    active,
                    deliver_ns: wall.deliver_ns,
                    compute_ns: wall.compute_ns,
                    barrier_ns: wall.barrier_ns,
                },
            );
        }
        self.wall.absorb(wall);
    }
}

/// Iterates one round's active set (contract clause 5): the ascending
/// `delivered` list of `(node, payload)` pairs — nodes that received a
/// message this round, with an engine-specific payload such as the
/// node's inbox location — merged with the ascending non-quiescent
/// `carry` list, invoking `f` exactly once per active node in
/// ascending node order. Carried-over nodes that received nothing get
/// `empty` as payload.
///
/// This is the single shared implementation of the active-set
/// semantics; the sequential [`Simulator`](crate::Simulator) and the
/// parallel engine both schedule through it, so the clause-5 merge
/// cannot drift between the oracle and an engine.
pub fn for_each_active<T: Copy>(
    delivered: &[(NodeId, T)],
    carry: &[NodeId],
    empty: T,
    mut f: impl FnMut(NodeId, T),
) {
    let (mut i, mut j) = (0, 0);
    loop {
        match (delivered.get(i), carry.get(j)) {
            (Some(&(d, t)), Some(&c)) => {
                if d <= c {
                    i += 1;
                    if d == c {
                        j += 1;
                    }
                    f(d, t);
                } else {
                    j += 1;
                    f(c, empty);
                }
            }
            (Some(&(d, t)), None) => {
                i += 1;
                f(d, t);
            }
            (None, Some(&c)) => {
                j += 1;
                f(c, empty);
            }
            (None, None) => break,
        }
    }
}
