//! The parallel deterministic engine.
//!
//! # Execution model
//!
//! Nodes are split into contiguous **shards**, balanced by degree
//! (prefix-sum cuts of `1 + deg(v)`). With `threads > 1` the engine
//! *overshards* (`OVERSHARD ×` more shards than workers) and workers
//! claim shards dynamically per phase via a per-shard epoch CAS — a
//! work-stealing schedule, so a skewed frontier that lands in one
//! static shard no longer serializes the round. Workers come from a
//! persistent [`WorkerPool`] (spawned once per engine, parked between
//! runs, shared with sub-executors), not from per-run thread spawns.
//!
//! The engine's configuration and cumulative accounting are the shared
//! [`ExecCore`], the same type the simulator embeds, and every run books
//! its rounds in the core's [`RoundLog`]. The run itself is a `RunCtx`
//! — the run's shard-disjoint state views and cross-worker counters —
//! whose named steps every worker executes in lockstep:
//!
//! * **stage** — one node's sends onto its outgoing directed-edge
//!   queues, merging per the clause-7 combiner. A directed edge has
//!   exactly one sender, so staging is disjoint across shards. Init and
//!   compute both stage through it.
//! * **deliver** — pops up to `cap` messages from every *charged*
//!   incoming queue of a shard's nodes into the shard's inbox arena. A
//!   directed edge has exactly one receiver, so queue access is
//!   disjoint across shards.
//! * **compute** — runs `Program::round` for a shard's *active* nodes
//!   and stages their sends.
//! * **decide** — worker 0 alone, between barriers: books the previous
//!   round in the round log and broadcasts the next move — another
//!   round, or the end of the run.
//!
//! Shard steps run only inside the one claim loop (`claim_each`: every
//! shard is claimed by exactly one worker per phase), and phases are
//! separated by the one timed barrier wait (`wait`). Every round is
//! deliver, barrier, compute, barrier; the owner of every index a step
//! touches depends only on the phase and the shard plan, which debug
//! builds assert at each step.
//!
//! # Frontier scheduling
//!
//! The engine implements the activation contract of `congest::exec`
//! (clause 5): per-round cost scales with the frontier, not with `n`
//! or `m`. `charged[d]` tracks whether directed queue `d` is
//! non-empty; a sender that charges an idle queue appends `d` to a
//! `touched[sender_shard][receiver_shard]` bucket, and deliver visits
//! only bucket entries plus still-charged carryover, in
//! `(receiver, directed id)` order — the simulator's inbox order.
//! Compute runs only nodes that received messages or stayed
//! non-quiescent; a shared non-quiescent counter replaces full
//! `is_quiescent` sweeps.
//!
//! # Memory layout
//!
//! The message data path is allocation-free in steady state (see
//! `DESIGN.md`, "Memory layout & the zero-alloc data path"): messages
//! are fixed-width inline values ([`congest::Message`]), queue storage
//! is pooled [`congest::slab`] cells keyed by *(sender shard, receiver
//! shard)* — the same disjointness pattern as the `touched` buckets —
//! and the whole arena ([`RunArena`]) is recycled across rounds *and*
//! runs, so a composite algorithm's later phases reuse the capacity of
//! its first.
//!
//! # Why this is deterministic
//!
//! The sequential simulator's only ordering guarantees are (a) per
//! directed edge FIFO and (b) inboxes ordered by directed edge id.
//! Both survive parallelization for free: every directed-edge queue
//! has a *unique* sender (so FIFO order equals that sender's staged
//! order, regardless of node interleaving), and each shard assembles
//! its nodes' inboxes by walking its charged incoming edges in
//! ascending directed id order — the sequential delivery order. All
//! per-shard state is keyed by the shard, not the worker, and each
//! shard is claimed by exactly one worker per phase, so *which* worker
//! processes a shard is invisible to the result — the shard plan and
//! steal order can be randomized (`ENGINE_SHARD_STRESS`) without
//! changing a single output bit. The result is bit-identical outputs
//! and [`RunStats`] versus [`congest::Simulator`] across any thread
//! count, verified by property tests.

use crate::csr::DirectedId;
use crate::plan::{EngineTopo, PlanData};
use crate::pool::WorkerPool;
use congest::exec::{ExecCore, RoundLog};
use congest::obs::PhaseWall;
use congest::slab::{EdgeQueue, Slab};
use congest::{Ctx, Executor, Message, Program, RunStats};
use lightgraph::{splitmix64, Graph, NodeId, SPLITMIX_GAMMA};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Instant;

/// Shards per worker when `threads > 1`: enough slack that a skewed
/// frontier can be stolen, few enough that bucket rows stay cheap.
const OVERSHARD: usize = 4;

/// Control codes broadcast by worker 0 in `ctrl_code`. Zero is
/// deliberately not a valid code.
const CTRL_ROUND: u64 = 1;
const CTRL_QUIESCENT: u64 = 2;
const CTRL_LIVELOCKED: u64 = 3;
const CTRL_ABORTED: u64 = 4;

/// A slice shared across workers with externally-guaranteed disjoint
/// index access.
///
/// # Safety invariant
/// Callers of [`SharedSlice::get_mut`] must guarantee that no index is
/// accessed by two workers within the same barrier-delimited phase.
/// The engine upholds this structurally: program, queue, and shard
/// state indices are owned by their shard, and each shard is claimed
/// by exactly one worker per phase (per-shard epoch CAS).
struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<'a, T: Send> Send for SharedSlice<'a, T> {}
unsafe impl<'a, T: Send> Sync for SharedSlice<'a, T> {}

impl<'a, T> SharedSlice<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// # Safety
    /// `i < len`, and no concurrent access to index `i` (see the type
    /// docs).
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Contiguous node ranges, balanced by degree: shard boundaries are
/// prefix-sum cuts of `1 + deg(v)` (the per-node deliver+compute cost
/// proxy) instead of equal node counts, so a hub node does not
/// overload its shard. Deterministic in `(graph, threads)`; the
/// `congest::exec` contract makes outputs independent of the
/// boundaries (and hence of the thread count) entirely, so balancing
/// is free to follow the workload.
fn shard_bounds(graph: &Graph, threads: usize) -> Vec<(usize, usize)> {
    let n = graph.n();
    let total: u64 = n as u64 + 2 * graph.m() as u64;
    let mut bounds = Vec::with_capacity(threads);
    let mut acc: u64 = 0;
    let mut v = 0usize;
    let mut lo = 0usize;
    for t in 1..=threads {
        let target = total * t as u64 / threads as u64;
        while v < n && acc < target {
            acc += 1 + graph.degree(v) as u64;
            v += 1;
        }
        bounds.push((lo, v));
        lo = v;
    }
    bounds
}

/// The next draw of the splitmix64 stream at `state` — the engine's
/// only randomness source (stress mode), so stress runs are replayable
/// from a single seed.
fn splitmix(state: &mut u64) -> u64 {
    let draw = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    draw
}

/// Base seed for `ENGINE_SHARD_STRESS=1` runs, drawn once per process
/// and announced on stderr so failures are replayable via
/// [`Engine::set_shard_stress_seed`].
fn stress_env_base() -> Option<u64> {
    static BASE: OnceLock<Option<u64>> = OnceLock::new();
    *BASE.get_or_init(|| match std::env::var("ENGINE_SHARD_STRESS") {
        Ok(v) if !v.is_empty() && v != "0" => {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            let seed = nanos ^ ((std::process::id() as u64) << 32);
            eprintln!(
                "engine: ENGINE_SHARD_STRESS active, base seed {seed:#x} \
                     (replay any run with Engine::set_shard_stress_seed)"
            );
            Some(seed)
        }
        _ => None,
    })
}

/// Per-run stress seed: explicit seed wins (replay), otherwise the env
/// base advanced by a process-wide run counter so every run shakes a
/// different shard plan.
fn stress_run_seed(explicit: Option<u64>) -> Option<u64> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    explicit.or_else(|| {
        stress_env_base()
            .map(|base| splitmix64(base.wrapping_add(RUNS.fetch_add(1, Ordering::Relaxed))))
    })
}

/// The shard plan for one run: degree-balanced overshards normally, a
/// randomized cut set under stress. Always covers `0..n` contiguously;
/// empty shards are legal (their claims are no-ops).
fn plan_shards(graph: &Graph, threads: usize, stress: Option<u64>) -> Vec<(usize, usize)> {
    let n = graph.n();
    if let Some(seed) = stress {
        let mut rng = seed;
        let hi = (threads * 2 * OVERSHARD).clamp(1, n.max(1));
        let lo = threads.min(hi);
        let nshards = lo + (splitmix(&mut rng) as usize) % (hi - lo + 1);
        let mut cuts: Vec<usize> = (1..nshards)
            .map(|_| (splitmix(&mut rng) as usize) % (n + 1))
            .collect();
        cuts.sort_unstable();
        let mut bounds = Vec::with_capacity(nshards);
        let mut prev = 0usize;
        for c in cuts {
            bounds.push((prev, c));
            prev = c;
        }
        bounds.push((prev, n));
        return bounds;
    }
    if threads == 1 {
        return shard_bounds(graph, 1);
    }
    shard_bounds(graph, (threads * OVERSHARD).min(n.max(1)))
}

/// Worker threads a run on `graph` uses: the configured count, clamped
/// to the node count.
fn run_threads(graph: &Graph, threads: usize) -> usize {
    threads.clamp(1, graph.n().max(1))
}

/// The shard plan for `(threads, stress)`: the cuts of [`plan_shards`],
/// their claim orders and the node owners.
fn cut_plan(graph: &Graph, threads: usize, stress: Option<u64>) -> PlanData {
    let shards = plan_shards(graph, threads, stress);
    let orders = claim_orders(shards.len(), threads, stress);
    PlanData::new(graph.n(), shards, orders)
}

/// Per-shard worker claim order: a rotation spreading workers across
/// the shard space (so first claims rarely collide), or a seeded
/// shuffle under stress to exercise every steal interleaving.
fn claim_orders(nshards: usize, threads: usize, stress: Option<u64>) -> Vec<Vec<usize>> {
    (0..threads)
        .map(|wid| {
            let mut ord: Vec<usize> = (0..nshards).collect();
            if let Some(seed) = stress {
                let mut rng = seed ^ (wid as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                for i in (1..nshards).rev() {
                    let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
                    ord.swap(i, j);
                }
            } else {
                ord.rotate_left(wid * nshards / threads);
            }
            ord
        })
        .collect()
}

/// All mutable per-shard execution state. Keyed by shard (not worker),
/// so results cannot depend on which worker claims the shard.
#[derive(Default)]
struct ShardState {
    /// Charged incoming edges carried over from the last deliver,
    /// sorted by `(receiver, directed id)`.
    carry_edges: Vec<DirectedId>,
    next_edges: Vec<DirectedId>,
    /// Non-quiescent nodes after their last activation, ascending.
    carry_nodes: Vec<NodeId>,
    next_nodes: Vec<NodeId>,
    /// Inbox arena + per-node ranges for the current round.
    arena: Vec<(NodeId, Message)>,
    inbox_ranges: Vec<(NodeId, (usize, usize))>,
    /// Record-mode: own out-queues that may be non-empty.
    out_backlog: Vec<DirectedId>,
    /// Scratch for `Ctx` staging.
    staged: Vec<(NodeId, Message)>,
}

/// The run-to-run queue arena ([`congest::slab`]): slab cells keyed by
/// *(sender shard, receiver shard)*, per-directed-edge queue headers,
/// charged flags, touched buckets, and per-shard state. Quiescence
/// drains every queue, so between runs everything is empty but keeps
/// its high-water capacity — the later phases of a composite algorithm
/// (SLT = tree + spanner + contractions on one engine) stage and
/// deliver without allocating. Cell access mirrors the `touched`
/// buckets: compute writes row `s`, deliver drains column `s` —
/// disjoint across shards in every phase. Rebuilt when the shard plan
/// changes size (stress mode); dropped, not reused, after an aborted
/// or livelocked run, whose queues may be non-empty.
#[derive(Default)]
struct RunArena {
    nshards: usize,
    slabs: Vec<Slab<Message>>,
    heads: Vec<EdgeQueue>,
    charged: Vec<bool>,
    touched: Vec<Vec<DirectedId>>,
    states: Vec<ShardState>,
    /// Per-shard claim epochs (reset to 0 between runs — `O(nshards)`,
    /// not `O(n)`).
    claims: Vec<AtomicU64>,
    /// Record-mode per-directed-edge delivery counters and backlog
    /// membership flags; kept across runs and fill-reset so recording
    /// composite workloads stays allocation-free too.
    per_directed: Vec<u64>,
    in_backlog: Vec<bool>,
}

impl RunArena {
    /// Readies the arena for a run over `directed` queues and `nshards`
    /// shards: resized on a geometry change, claim epochs reset, and —
    /// when `record`ing — the per-directed delivery counters and the
    /// backlog flags (which let the per-round depth histogram scan each
    /// sender's backlog instead of all `2m` queues) fill-reset.
    fn checkout(&mut self, directed: usize, nshards: usize, record: bool) {
        if self.heads.len() != directed {
            self.heads = vec![EdgeQueue::EMPTY; directed];
            self.charged = vec![false; directed];
        }
        if self.nshards != nshards {
            self.nshards = nshards;
            self.slabs = (0..nshards * nshards).map(|_| Slab::new()).collect();
            self.touched = vec![Vec::new(); nshards * nshards];
            self.states = (0..nshards).map(|_| ShardState::default()).collect();
            self.claims = (0..nshards).map(|_| AtomicU64::new(0)).collect();
        } else {
            for c in &self.claims {
                c.store(0, Ordering::Relaxed);
            }
        }
        debug_assert!(self.heads.iter().all(EdgeQueue::is_empty));
        if record {
            self.per_directed.clear();
            self.per_directed.resize(directed, 0);
            self.in_backlog.clear();
            self.in_backlog.resize(directed, false);
        }
    }
}

/// The parallel deterministic CONGEST engine.
///
/// Drop-in [`Executor`] replacement for [`congest::Simulator`]: same
/// [`Program`] interface, bit-identical outputs and [`RunStats`], but
/// rounds execute over work-stolen node shards on a persistent worker
/// pool. See the module docs for the phase/claim structure.
pub struct Engine<'g> {
    graph: &'g Graph,
    core: ExecCore,
    /// Topology-derived structure (CSR, sender/receiver maps), built
    /// in the constructor — see [`crate::plan`].
    topo: EngineTopo,
    /// The unstressed shard plan for `threads` (clamped to the node
    /// count), built in the constructor and used by every unstressed
    /// run.
    plan: PlanData,
    threads: usize,
    pool: Option<Arc<WorkerPool>>,
    stress_seed: Option<u64>,
    arena: RunArena,
}

impl<'g> std::fmt::Debug for Engine<'g> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("n", &self.graph.n())
            .field("m", &self.graph.m())
            .field("cap", &self.cap())
            .field("threads", &self.threads)
            .field("total", &self.total())
            .finish()
    }
}

impl<'g> Engine<'g> {
    /// Creates an engine over `graph` with bandwidth cap 1 and as many
    /// worker threads as the machine reports.
    pub fn new(graph: &'g Graph) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Engine::with_threads(graph, threads)
    }

    /// Creates an engine with an explicit worker-thread count
    /// (`threads >= 1`; clamped to the node count at run time).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(graph: &'g Graph, threads: usize) -> Self {
        Engine::with_core(graph, threads, ExecCore::default())
    }

    /// An engine starting from `core` (the [`Executor::sub`] path).
    fn with_core(graph: &'g Graph, threads: usize, core: ExecCore) -> Self {
        assert!(threads >= 1, "engine needs at least one worker thread");
        Engine {
            graph,
            core,
            topo: EngineTopo::build(graph),
            plan: cut_plan(graph, run_threads(graph, threads), None),
            threads,
            pool: None,
            stress_seed: None,
            arena: RunArena::default(),
        }
    }

    /// Worker threads used per run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pins the shard-stress seed for this engine (and its
    /// sub-executors): `Some(seed)` randomizes shard cuts and steal
    /// order exactly as `ENGINE_SHARD_STRESS=1` does, but replayably —
    /// determinism tests sweep seeds without touching the environment.
    /// `None` (the default) falls back to the env var.
    pub fn set_shard_stress_seed(&mut self, seed: Option<u64>) {
        self.stress_seed = seed;
    }

    /// Runs one program per node until global quiescence. Same contract
    /// and same observable behavior as [`congest::Simulator::run`]; see
    /// the module docs.
    ///
    /// # Panics
    /// Panics if the run exceeds the `max_rounds` livelock guard, or if
    /// a program callback panics (the panic is forwarded).
    pub fn run<P, F>(&mut self, mut make: F) -> (Vec<P::Output>, RunStats)
    where
        P: Program + Send,
        P::Output: Send,
        F: FnMut(NodeId, &Graph) -> P,
    {
        let (mut log, node_stats) = self.core.begin_run("parallel");
        let graph = self.graph;
        let n = graph.n();
        let threads = run_threads(graph, self.threads);
        // Ensure the persistent pool; sub-executors share it via `Arc`
        // (see `Executor::sub`).
        if threads > 1 && self.pool.as_ref().map_or(0, |p| p.workers()) < threads - 1 {
            self.pool = Some(Arc::new(WorkerPool::new(threads - 1)));
        }
        let topo = &self.topo;
        // Shard plan (bounds, claim orders, node owners): the one built
        // in the constructor, or, under stress, a cut for this run only.
        let stressed;
        let plan = match stress_run_seed(self.stress_seed) {
            None => &self.plan,
            Some(seed) => {
                stressed = cut_plan(graph, threads, Some(seed));
                &stressed
            }
        };

        // `make` runs on the calling thread, in node order (contract).
        let mut programs: Vec<P> = (0..n).map(|v| make(v, graph)).collect();
        // Queue storage is the persistent arena (see `RunArena`):
        // staging goes through the shared `congest::slab` (contract
        // clause 7), so the merge semantics are the simulator's by
        // construction.
        let mut arena = std::mem::take(&mut self.arena);
        arena.checkout(topo.csr.directed_len(), plan.shards.len(), log.recording());
        let track_nodes = node_stats.is_some();
        let mut node_stats = node_stats.unwrap_or_default();
        // Everything up to here — a stressed plan cut, arena checkout,
        // program construction — is per-run setup; the workers below
        // are the run proper.
        log.setup_done();

        let (stats, livelocked) = {
            let ctx = RunCtx {
                graph,
                topo,
                plan,
                nshards: plan.shards.len(),
                cap: self.cap() as u64,
                max_rounds: self.core.max_rounds(),
                record: log.recording(),
                timed: log.timed(),
                track_nodes,
                programs: SharedSlice::new(&mut programs),
                slabs: SharedSlice::new(&mut arena.slabs),
                heads: SharedSlice::new(&mut arena.heads),
                charged: SharedSlice::new(&mut arena.charged),
                touched: SharedSlice::new(&mut arena.touched),
                states: SharedSlice::new(&mut arena.states),
                per_directed: SharedSlice::new(&mut arena.per_directed),
                in_backlog: SharedSlice::new(&mut arena.in_backlog),
                ns_sent: SharedSlice::new(&mut node_stats.sent),
                ns_delivered: SharedSlice::new(&mut node_stats.delivered),
                ns_invocations: SharedSlice::new(&mut node_stats.invocations),
                claims: &arena.claims,
                c: Counters::default(),
                barrier: Barrier::new(threads),
            };
            match self.pool.as_deref() {
                Some(pool) if threads > 1 => {
                    pool.scope(threads, &|wid| ctx.worker(wid, None), || {
                        ctx.worker(0, Some(&mut log))
                    })
                }
                _ => ctx.worker(0, Some(&mut log)),
            }
            if let Some(payload) = ctx.c.panic_payload.lock().expect("panic slot").take() {
                resume_unwind(payload);
            }
            let stats = RunStats {
                rounds: log.rounds(),
                messages: ctx.c.sent.load(Ordering::SeqCst),
                messages_combined: ctx.c.combined.load(Ordering::SeqCst),
            };
            let code = ctx.c.ctrl_code.load(Ordering::SeqCst);
            (stats, code == CTRL_LIVELOCKED)
        };
        if livelocked {
            self.core.livelocked();
        }
        // Quiescence drained every queue (pending == 0); keep the arena
        // for the next run. Aborted/livelocked runs unwind above and
        // drop it instead — their queues may be non-empty.
        self.arena = arena;
        let node_stats = track_nodes.then_some(node_stats);
        let per_directed = &self.arena.per_directed;
        self.core
            .end_run(log, node_stats, stats, per_directed, threads);
        (programs.into_iter().map(Program::finish).collect(), stats)
    }
}

/// Staging counters a shard batches over one claimed step and publishes
/// once.
#[derive(Default)]
struct Tally {
    /// Net change in queued messages: appended sends minus deliveries.
    pending: i64,
    sent: u64,
    combined: u64,
}

/// A run's cross-worker counters and control words. Shards batch their
/// updates per claimed step; worker 0 reads them only after a barrier,
/// in `decide`.
#[derive(Default)]
struct Counters {
    /// Queued, undelivered messages; with `nonquiescent`, decides
    /// quiescence.
    pending: AtomicI64,
    /// Non-quiescent programs, maintained from each shard's
    /// carryover-list delta (replaces an every-node `is_quiescent`
    /// sweep).
    nonquiescent: AtomicI64,
    /// Logical sends and clause-7 merges; at quiescence staged =
    /// delivered + combined.
    sent: AtomicU64,
    combined: AtomicU64,
    /// The current round's deliveries, invocations and (record mode)
    /// largest queue after its sends.
    round_delivered: AtomicU64,
    round_active: AtomicU64,
    round_depth: AtomicU64,
    /// Worker 0's broadcast decision, one of the `CTRL_*` codes; stored
    /// before barrier #1, loaded after.
    ctrl_code: AtomicU64,
    /// Per-phase wall sampled by *all* workers — deliver/compute via
    /// `fetch_max` (phase wall = slowest worker), barrier via
    /// `fetch_add` (total wait). Worker 0 drains them at decisions;
    /// attribution at round boundaries is approximate (documented in
    /// `congest::obs`).
    ph_deliver: AtomicU64,
    ph_compute: AtomicU64,
    ph_barrier: AtomicU64,
    abort: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// One run's execution context, shared by reference across the pool:
/// the run's configuration, shard-disjoint views of its state, the
/// cross-worker counters, and the named steps every worker executes in
/// lockstep (see the module docs).
///
/// Every `unsafe` access below relies on the [`SharedSlice`] claim
/// discipline: a step touches shard `s`'s state only after its worker
/// won `s` for the current phase in `claim_each`, and every queue,
/// bucket, slab cell and node counter the step indexes is owned by `s`
/// in that phase. Ownership depends only on the phase and the shard
/// plan; each step `debug_assert`s it for the node it indexes by.
struct RunCtx<'a, P> {
    graph: &'a Graph,
    topo: &'a EngineTopo,
    plan: &'a PlanData,
    nshards: usize,
    cap: u64,
    max_rounds: u64,
    record: bool,
    timed: bool,
    track_nodes: bool,
    programs: SharedSlice<'a, P>,
    /// Slab cells, `(sender shard) * nshards + (receiver shard)`.
    slabs: SharedSlice<'a, Slab<Message>>,
    heads: SharedSlice<'a, EdgeQueue>,
    /// `charged[d]` ⇔ queue `d` is non-empty ⇔ `d` sits in exactly one
    /// receiver-side carryover list or touched bucket — set by the
    /// unique sender shard while staging, cleared by the unique
    /// receiver shard while delivering.
    charged: SharedSlice<'a, bool>,
    /// `touched[s * nshards + r]`: the edges freshly charged by sender
    /// shard `s` toward receiver shard `r`.
    touched: SharedSlice<'a, Vec<DirectedId>>,
    states: SharedSlice<'a, ShardState>,
    per_directed: SharedSlice<'a, u64>,
    in_backlog: SharedSlice<'a, bool>,
    /// Per-node counters (empty unless `track_nodes`): `sent` and
    /// `invocations` indexed by owned nodes, `delivered` by owned
    /// receivers — the same sharding as programs and queues.
    ns_sent: SharedSlice<'a, u64>,
    ns_delivered: SharedSlice<'a, u64>,
    ns_invocations: SharedSlice<'a, u64>,
    /// Per-shard claim epochs: a worker owns shard `s` for phase `p`
    /// iff it wins `claims[s]: p-1 → p`.
    claims: &'a [AtomicU64],
    c: Counters,
    barrier: Barrier,
}

impl<P: Program> RunCtx<'_, P> {
    /// One worker's body, run by every worker in lockstep (broadcast
    /// decisions keep them there); worker 0 also holds the round log
    /// and decides. Every worker counts the rounds itself.
    fn worker(&self, wid: usize, mut log: Option<&mut RoundLog>) {
        let order = &self.plan.orders[wid];
        // Local phase counter, advanced identically by every worker:
        // +1 for init, +2 per round.
        let mut phase = 0;
        let mut round = 0;
        self.claim_each(order, &mut phase, None, |s| self.init_shard(s));
        self.wait(); // init burst + carryover seeds visible
        loop {
            if let Some(log) = log.as_deref_mut() {
                self.decide(round > 0, log);
            }
            self.wait(); // #1: decision epoch closed
            if self.c.ctrl_code.load(Ordering::SeqCst) != CTRL_ROUND {
                // Terminal (quiescent / livelocked / aborted): worker 0
                // already booked the final round.
                return;
            }
            round += 1;
            let sample = Some(&self.c.ph_deliver);
            self.claim_each(order, &mut phase, sample, |s| self.deliver(s));
            self.wait(); // #2: all inboxes assembled
            let sample = Some(&self.c.ph_compute);
            self.claim_each(order, &mut phase, sample, |s| self.compute(s, round));
            self.wait(); // #3: all sends queued
        }
    }

    /// The claim loop: advances this worker's `phase` and runs `f` on
    /// every shard it wins (`claims[s]: phase-1 → phase`). Every worker
    /// walks all shards each phase, so every shard is claimed exactly
    /// once per phase regardless of interleaving. A panic in `f` is
    /// stashed for the caller and aborts the run; `sample`, when timed,
    /// receives this worker's wall for the loop (max across workers).
    fn claim_each(
        &self,
        order: &[usize],
        phase: &mut u64,
        sample: Option<&AtomicU64>,
        mut f: impl FnMut(usize),
    ) {
        *phase += 1;
        let p = *phase;
        let timer = sample
            .filter(|_| self.timed)
            .map(|acc| (acc, Instant::now()));
        if !self.c.abort.load(Ordering::SeqCst) {
            let claimed = catch_unwind(AssertUnwindSafe(|| {
                for &s in order {
                    let claim = &self.claims[s];
                    if claim
                        .compare_exchange(p - 1, p, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        f(s);
                    }
                }
            }));
            if let Err(payload) = claimed {
                *self.c.panic_payload.lock().expect("panic slot") = Some(payload);
                self.c.abort.store(true, Ordering::SeqCst);
            }
        }
        if let Some((acc, t)) = timer {
            acc.fetch_max(t.elapsed().as_nanos() as u64, Ordering::SeqCst);
        }
    }

    /// The timed barrier wait: every worker adds its wait to the
    /// barrier wall (total across workers).
    fn wait(&self) {
        let t = self.timed.then(Instant::now);
        self.barrier.wait();
        if let Some(t) = t {
            let ns = t.elapsed().as_nanos() as u64;
            self.c.ph_barrier.fetch_add(ns, Ordering::SeqCst);
        }
    }

    /// Worker 0 alone, between barriers: books the round just run, if
    /// `book` — every counter settled before the last barrier — and
    /// broadcasts the next move.
    fn decide(&self, book: bool, log: &mut RoundLog) {
        let c = &self.c;
        if book {
            let wall = PhaseWall {
                deliver_ns: c.ph_deliver.swap(0, Ordering::SeqCst),
                compute_ns: c.ph_compute.swap(0, Ordering::SeqCst),
                barrier_ns: c.ph_barrier.swap(0, Ordering::SeqCst),
            };
            log.round(
                c.round_delivered.swap(0, Ordering::SeqCst),
                c.round_active.swap(0, Ordering::SeqCst),
                c.round_depth.swap(0, Ordering::SeqCst),
                wall,
            );
        }
        let code = if c.abort.load(Ordering::SeqCst) {
            CTRL_ABORTED
        } else if c.pending.load(Ordering::SeqCst) == 0
            && c.nonquiescent.load(Ordering::SeqCst) == 0
        {
            CTRL_QUIESCENT
        } else if log.rounds() + 1 > self.max_rounds {
            CTRL_LIVELOCKED
        } else {
            CTRL_ROUND
        };
        c.ctrl_code.store(code, Ordering::SeqCst);
    }

    /// Publishes a shard's batched staging counters and its change in
    /// non-quiescent programs.
    fn publish(&self, t: &Tally, nonquiescent: i64) {
        self.c.pending.fetch_add(t.pending, Ordering::SeqCst);
        self.c.sent.fetch_add(t.sent, Ordering::SeqCst);
        self.c.combined.fetch_add(t.combined, Ordering::SeqCst);
        self.c
            .nonquiescent
            .fetch_add(nonquiescent, Ordering::SeqCst);
    }

    /// Init (round 0) of claimed shard `s`: one send burst per node and
    /// the run's only full-shard `is_quiescent` sweep, which seeds the
    /// non-quiescent carryover.
    fn init_shard(&self, s: usize) {
        // SAFETY: init phase; this worker claimed shard `s`, which owns
        // its state.
        let st = unsafe { self.states.get_mut(s) };
        let (lo, hi) = self.plan.shards[s];
        let mut t = Tally::default();
        for v in lo..hi {
            // SAFETY: init phase; node `v` belongs to the claimed shard.
            let p = unsafe { self.programs.get_mut(v) };
            let mut ctx = Ctx::new(
                v,
                self.graph.n(),
                0,
                self.graph.neighbors(v),
                &mut st.staged,
            );
            p.init(&mut ctx);
            self.stage(s, v, p, &mut st.staged, &mut st.out_backlog, &mut t);
            if !p.is_quiescent() {
                st.carry_nodes.push(v);
            }
        }
        self.publish(&t, st.carry_nodes.len() as i64);
    }

    /// Stages node `v`'s sends — drained from its `Ctx` buffer — on its
    /// outgoing queues: the one staging path of init and compute. A
    /// message either merges into a co-queued one per the sender's
    /// combiner (clause 7, through the shared slab; that queue was
    /// non-empty, so it is already charged and backlogged) or is
    /// appended, charging an idle queue into bucket
    /// `(s, receiver shard)` and, in record mode, `s`'s backlog list.
    fn stage(
        &self,
        s: usize,
        v: NodeId,
        p: &P,
        staged: &mut Vec<(NodeId, Message)>,
        backlog: &mut Vec<DirectedId>,
        t: &mut Tally,
    ) {
        debug_assert_eq!(self.shard_of(v), s, "sender {v} outside its shard");
        for (to, msg) in staged.drain(..) {
            t.sent += 1;
            let d = self.topo.csr.out_id(v, to);
            let key = p.combine_key(&msg);
            let ci = s * self.nshards + self.shard_of(to);
            // SAFETY: init or compute phase of the claimed shard `s`.
            // Node `v` belongs to `s` and is the unique sender on `d`,
            // so `v`'s counter, queue `d` with its flags, and the row-`s`
            // cell and bucket are this shard's alone: receiver shards
            // drain their columns only in deliver phases.
            unsafe {
                if self.track_nodes {
                    *self.ns_sent.get_mut(v) += 1;
                }
                let q = self.heads.get_mut(d);
                let merged = self.slabs.get_mut(ci).stage(q, d, key, msg, |old, new| {
                    let m = p.combine(old, &new);
                    debug_assert_eq!(p.combine_key(&m), key, "combiner changed the key");
                    *old = m;
                });
                if merged {
                    t.combined += 1;
                    continue;
                }
                t.pending += 1;
                let ch = self.charged.get_mut(d);
                if !*ch {
                    *ch = true;
                    self.touched.get_mut(ci).push(d);
                }
                if self.record {
                    let ib = self.in_backlog.get_mut(d);
                    if !*ib {
                        *ib = true;
                        backlog.push(d);
                    }
                }
            }
        }
    }

    /// Claimed shard `s`'s deliver: appends every sender shard's bucket
    /// in column `s` to the still-charged carryover, then pops up to
    /// `cap` messages per charged queue into the shard's inbox arena in
    /// `(receiver, directed id)` order, the simulator's per-node inbox
    /// order, and publishes the deliveries.
    fn deliver(&self, s: usize) {
        // SAFETY: deliver phase; this worker claimed shard `s`.
        let ShardState {
            carry_edges,
            next_edges,
            arena,
            inbox_ranges,
            ..
        } = unsafe { self.states.get_mut(s) };
        let receivers = &self.topo.receivers;
        arena.clear();
        inbox_ranges.clear();
        let mut fresh = false;
        for w in 0..self.nshards {
            // SAFETY: deliver phase of the claimed shard `s`: only the
            // receiver shard drains column `s`, and senders stage into
            // it only in init and compute phases.
            let bucket = unsafe { self.touched.get_mut(w * self.nshards + s) };
            fresh |= !bucket.is_empty();
            carry_edges.append(bucket);
        }
        if fresh {
            carry_edges.sort_unstable_by_key(|&d| (receivers[d], d));
        }
        let mut delivered = 0u64;
        next_edges.clear();
        for &d in carry_edges.iter() {
            let v = receivers[d];
            debug_assert_eq!(self.shard_of(v), s, "receiver {v} outside its shard");
            match inbox_ranges.last_mut() {
                Some(&mut (node, _)) if node == v => {}
                _ => inbox_ranges.push((v, (arena.len(), arena.len()))),
            }
            let from = self.topo.senders[d];
            let ci = self.shard_of(from) * self.nshards + s;
            // SAFETY: deliver phase of the claimed shard `s`: `d` is
            // charged toward receiver `v` of `s`, its unique receiver
            // shard, so queue `d` with its flag and counter, `v`'s
            // counter and the column-`s` cell are this shard's alone.
            unsafe {
                let (cell, q) = (self.slabs.get_mut(ci), self.heads.get_mut(d));
                let mut popped = 0u64;
                while popped < self.cap {
                    match cell.pop(q, d) {
                        Some((_, m)) => {
                            arena.push((from, m));
                            popped += 1;
                        }
                        None => break,
                    }
                }
                delivered += popped;
                if self.record && popped > 0 {
                    *self.per_directed.get_mut(d) += popped;
                }
                if self.track_nodes && popped > 0 {
                    *self.ns_delivered.get_mut(v) += popped;
                }
                if q.is_empty() {
                    *self.charged.get_mut(d) = false;
                } else {
                    next_edges.push(d);
                }
            }
            inbox_ranges.last_mut().expect("pushed above").1 .1 = arena.len();
        }
        std::mem::swap(carry_edges, next_edges);
        self.c.pending.fetch_sub(delivered as i64, Ordering::SeqCst);
        self.c
            .round_delivered
            .fetch_add(delivered, Ordering::SeqCst);
    }

    /// Claimed shard `s`'s compute at logical round `round`: runs its
    /// active programs (deliveries ∪ non-quiescent carryover — clause 5
    /// via the shared merge), stages their sends, rotates the
    /// carryover, and publishes the invocations and, in record mode,
    /// the largest queue among the shard's backlogged out-queues —
    /// queues outside the backlog are empty, so this matches a full
    /// `2m`-queue sweep at frontier-proportional cost.
    fn compute(&self, s: usize, round: u64) {
        // SAFETY: compute phase; this worker claimed shard `s`.
        let ShardState {
            carry_nodes,
            next_nodes,
            arena,
            inbox_ranges,
            out_backlog,
            staged,
            ..
        } = unsafe { self.states.get_mut(s) };
        let carried = carry_nodes.len() as i64;
        let mut t = Tally::default();
        let mut active = 0u64;
        next_nodes.clear();
        congest::for_each_active(inbox_ranges, carry_nodes, (0, 0), |v, (lo, hi)| {
            debug_assert_eq!(self.shard_of(v), s, "active {v} outside its shard");
            active += 1;
            // SAFETY: compute phase of the claimed shard `s`, which owns
            // node `v`.
            let p = unsafe {
                if self.track_nodes {
                    *self.ns_invocations.get_mut(v) += 1;
                }
                self.programs.get_mut(v)
            };
            let mut ctx = Ctx::new(
                v,
                self.graph.n(),
                round,
                self.graph.neighbors(v),
                &mut *staged,
            );
            p.round(&mut ctx, &arena[lo..hi]);
            self.stage(s, v, p, &mut *staged, &mut *out_backlog, &mut t);
            if !p.is_quiescent() {
                next_nodes.push(v);
            }
        });
        std::mem::swap(carry_nodes, next_nodes);
        self.publish(&t, carry_nodes.len() as i64 - carried);
        self.c.round_active.fetch_add(active, Ordering::SeqCst);
        if self.record {
            let mut depth = 0;
            out_backlog.retain(|&d| {
                let sender = self.topo.senders[d];
                debug_assert_eq!(
                    self.shard_of(sender),
                    s,
                    "sender {sender} outside its shard"
                );
                // SAFETY: compute phase of the claimed shard `s`, the
                // unique sender on its backlogged queue `d`; `d`'s
                // receiver pops it only in a later deliver phase.
                let len = unsafe { self.heads.get_mut(d) }.len() as u64;
                if len == 0 {
                    // SAFETY: as above; only the sender shard keeps
                    // `d`'s backlog flag.
                    *unsafe { self.in_backlog.get_mut(d) } = false;
                    false
                } else {
                    depth = depth.max(len);
                    true
                }
            });
            self.c.round_depth.fetch_max(depth, Ordering::SeqCst);
        }
    }

    fn shard_of(&self, v: NodeId) -> usize {
        self.plan.shard_of[v] as usize
    }
}

impl<'g> Executor<'g> for Engine<'g> {
    type Sub<'h> = Engine<'h>;

    fn sub<'h>(&self, graph: &'h Graph) -> Engine<'h> {
        // Sub-executors build their own topology and plan for their own
        // graph, and share the parent's parked workers and its stress
        // seed — a composite algorithm spawns threads exactly once.
        let mut sub = Engine::with_core(graph, self.threads, self.core.sub(graph.n()));
        sub.pool = self.pool.clone();
        sub.stress_seed = self.stress_seed;
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
        Engine::run(self, make)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::{Simulator, Word};
    use lightgraph::generators;

    struct Flood {
        have: bool,
    }

    impl Program for Flood {
        type Output = (bool, u64);
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node() == 0 {
                self.have = true;
                ctx.send_all(Message::words(&[7]));
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
            if !self.have && !inbox.is_empty() {
                self.have = true;
                ctx.send_all(Message::words(&[7]));
            }
        }
        fn finish(self) -> (bool, u64) {
            (self.have, 0)
        }
    }

    #[test]
    fn matches_simulator_on_flood() {
        for seed in 0..5 {
            let g = generators::erdos_renyi(64, 0.08, 10, seed);
            let mut sim = Simulator::new(&g);
            let (a, sa) = sim.run(|_, _| Flood { have: false });
            for threads in [1, 2, 5] {
                let mut eng = Engine::with_threads(&g, threads);
                let (b, sb) = eng.run(|_, _| Flood { have: false });
                assert_eq!(a, b, "outputs differ (threads={threads}, seed={seed})");
                assert_eq!(sa, sb, "stats differ (threads={threads}, seed={seed})");
            }
        }
    }

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

    /// Every node answers each message it receives, forever: a
    /// livelock.
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

    #[test]
    fn bandwidth_cap_pipelines_like_simulator() {
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 2);
        let (out, stats) = eng.run(|_, _| Burst { k: 10, received: 0 });
        assert_eq!(stats.rounds, 10);
        assert_eq!(out[1], 10);

        let mut eng5 = Engine::with_threads(&g, 2);
        Executor::set_cap(&mut eng5, 5);
        let (_, s5) = eng5.run(|_, _| Burst { k: 10, received: 0 });
        assert_eq!(s5.rounds, 2);
    }

    #[test]
    fn per_edge_fifo_order_is_preserved() {
        // node 0 sends 0..6 to node 1; they must arrive in order.
        struct Seq {
            k: u64,
            got: Vec<u64>,
        }
        impl Program for Seq {
            type Output = Vec<u64>;
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.node() == 0 {
                    for i in 0..self.k {
                        ctx.send(1, Message::words(&[i]));
                    }
                }
            }
            fn round(&mut self, _ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
                for (_, m) in inbox {
                    self.got.push(m.word(0));
                }
            }
            fn finish(self) -> Vec<u64> {
                self.got
            }
        }
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 2);
        let (out, _) = eng.run(|_, _| Seq {
            k: 6,
            got: Vec::new(),
        });
        assert_eq!(out[1], vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "livelocked")]
    fn livelock_guard_fires() {
        // Two workers on the pool must stop at max_rounds.
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 2);
        Executor::set_max_rounds(&mut eng, 100);
        eng.run(|_, _| Chatter);
    }

    #[test]
    #[should_panic(expected = "livelocked")]
    fn livelock_guard_fires_inside_fused_blocks() {
        // Single-threaded: one shard runs every round on the calling
        // thread (the case that used to run as fused blocks), and the
        // guard must still stop at max_rounds.
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 1);
        Executor::set_max_rounds(&mut eng, 1000);
        eng.run(|_, _| Chatter);
    }

    #[test]
    fn program_panics_are_forwarded_not_deadlocked() {
        struct Bomb;
        impl Program for Bomb {
            type Output = ();
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_all(Message::words(&[1]));
            }
            fn round(&mut self, ctx: &mut Ctx<'_>, _inbox: &[(NodeId, Message)]) {
                if ctx.node() == 3 {
                    panic!("boom at node 3");
                }
            }
            fn finish(self) {}
        }
        let g = generators::cycle(8, 1);
        let mut eng = Engine::with_threads(&g, 3);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| eng.run(|_, _| Bomb)))
            .expect_err("must propagate");
        let text = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(text.contains("boom"), "unexpected payload {text:?}");
        // The engine (and its pool) must stay usable after the panic.
        let (out, _) = eng.run(|_, _| Flood { have: false });
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn panicking_is_quiescent_is_forwarded_not_deadlocked() {
        struct QuietBomb {
            armed: bool,
        }
        impl Program for QuietBomb {
            type Output = ();
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_all(Message::words(&[1]));
            }
            fn round(&mut self, _ctx: &mut Ctx<'_>, _inbox: &[(NodeId, Message)]) {
                self.armed = true;
            }
            fn is_quiescent(&self) -> bool {
                assert!(!self.armed, "quiescence bomb");
                true
            }
            fn finish(self) {}
        }
        let g = generators::cycle(8, 1);
        let mut eng = Engine::with_threads(&g, 3);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            eng.run(|_, _| QuietBomb { armed: false })
        }))
        .expect_err("must propagate");
        let text = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            text.contains("quiescence bomb"),
            "unexpected payload {text:?}"
        );
    }

    #[test]
    fn shards_balance_by_degree_not_node_count() {
        // Star: the hub carries almost all the work; its shard must
        // hold far fewer nodes than the leaf shard.
        let g = generators::star(31, 9, 1);
        let bounds = shard_bounds(&g, 2);
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[0].0, 0);
        assert_eq!(bounds[1].1, 31);
        assert_eq!(bounds[0].1, bounds[1].0, "shards are contiguous");
        let hub_shard = bounds[if g.degree(0) > g.degree(30) { 0 } else { 1 }];
        assert!(
            hub_shard.1 - hub_shard.0 < 16,
            "hub shard {hub_shard:?} should be node-light"
        );
        // Work (1 + degree) is near-balanced.
        let work =
            |(lo, hi): (usize, usize)| -> u64 { (lo..hi).map(|v| 1 + g.degree(v) as u64).sum() };
        let (w0, w1) = (work(bounds[0]), work(bounds[1]));
        assert!(w0.abs_diff(w1) <= 1 + g.degree(0) as u64, "{w0} vs {w1}");
    }

    #[test]
    fn shard_bounds_cover_all_nodes_for_any_thread_count() {
        for (n, seed) in [(1usize, 0u64), (7, 1), (40, 2)] {
            let g = generators::erdos_renyi(n, 0.2, 9, seed);
            for threads in 1..=8 {
                let bounds = shard_bounds(&g, threads);
                assert_eq!(bounds.len(), threads);
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds[threads - 1].1, n);
                assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0));
            }
        }
    }

    #[test]
    fn plan_shards_covers_nodes_under_stress_and_normally() {
        for (n, seed) in [(1usize, 11u64), (7, 12), (40, 13)] {
            let g = generators::erdos_renyi(n, 0.2, 9, seed);
            for threads in 1..=4 {
                for stress in [None, Some(seed), Some(seed ^ 0xdead_beef)] {
                    let bounds = plan_shards(&g, threads, stress);
                    assert!(!bounds.is_empty());
                    assert_eq!(bounds[0].0, 0);
                    assert_eq!(bounds.last().unwrap().1, n);
                    assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0));
                    assert!(bounds.iter().all(|&(lo, hi)| lo <= hi));
                }
            }
        }
    }

    #[test]
    fn frontier_stats_match_simulator_and_skip_idle_nodes() {
        // Burst over one edge: only the receiver is ever active, so a
        // 10-round run costs 10 invocations (dense: 20), on any thread
        // count, matching the simulator's frontier accounting.
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sim = congest::Simulator::new(&g);
        sim.run(|_, _| Burst { k: 10, received: 0 });
        for threads in [1, 2] {
            let mut eng = Engine::with_threads(&g, threads);
            let (_, stats) = eng.run(|_, _| Burst { k: 10, received: 0 });
            let f = Executor::frontier_total(&eng);
            assert_eq!(f, sim.frontier_total(), "threads={threads}");
            assert_eq!(f.invocations, 10);
            assert_eq!(f.peak_active, 1);
            assert!(f.invocations < stats.rounds * g.n() as u64, "skips idle");
        }
    }

    #[test]
    fn report_collects_histograms_and_hot_edges() {
        let g = lightgraph::Graph::from_edges(3, [(0, 1, 1), (1, 2, 1)]).unwrap();
        let mut eng = Engine::with_threads(&g, 2);
        eng.set_record_metrics(true);
        let (_, stats) = eng.run(|_, _| Burst { k: 4, received: 0 });
        let report = eng.last_report().expect("recording enabled");
        assert_eq!(report.rounds, stats.rounds);
        assert_eq!(report.total_messages, stats.messages);
        assert_eq!(report.messages_delivered, stats.messages_delivered());
        assert_eq!(report.messages_combined, stats.messages_combined);
        assert_eq!(
            report.messages_per_round.iter().sum::<u64>(),
            report.messages_delivered
        );
        assert_eq!(
            report.active_per_round.iter().sum::<u64>(),
            Executor::frontier_total(&eng).invocations,
            "active histogram sums to the invocation count"
        );
        assert_eq!(
            report.peak_active(),
            Executor::frontier_total(&eng).peak_active
        );
        assert_eq!(report.hot_edges[0].0, 0, "edge 0 carries the burst");
        assert_eq!(
            report.peak_queue_depth(),
            3,
            "k-1 messages remain after round 1"
        );
        assert_eq!(report.threads, 2);
    }

    #[test]
    fn report_series_identical_across_threads() {
        // One shard at threads=1, stolen overshards beyond: every
        // per-round histogram column must match bit for bit, whichever
        // worker ran which shard in which round.
        let g = generators::path(24, 1);
        let mut sim = Simulator::new(&g);
        let (os, ss) = sim.run(|_, _| Flood { have: false });
        let mut reference: Option<congest::RunReport> = None;
        for threads in [1, 2, 4] {
            let mut eng = Engine::with_threads(&g, threads);
            eng.set_record_metrics(true);
            let (oe, se) = eng.run(|_, _| Flood { have: false });
            assert_eq!(os, oe, "outputs (threads={threads})");
            assert_eq!(ss, se, "stats (threads={threads})");
            assert_eq!(
                sim.frontier_total(),
                Executor::frontier_total(&eng),
                "frontier (threads={threads})"
            );
            let report = eng.last_report().expect("recording enabled");
            if let Some(r) = reference.as_ref() {
                assert_eq!(
                    r.messages_per_round, report.messages_per_round,
                    "messages/round (threads={threads})"
                );
                assert_eq!(
                    r.active_per_round, report.active_per_round,
                    "active/round (threads={threads})"
                );
                assert_eq!(
                    r.max_queue_depth_per_round, report.max_queue_depth_per_round,
                    "depth/round (threads={threads})"
                );
                assert_eq!(
                    r.hot_edges, report.hot_edges,
                    "hot edges (threads={threads})"
                );
            } else {
                reference = Some(report.clone());
            }
        }
    }

    #[test]
    fn stress_seeds_never_change_outputs() {
        // Randomized shard cuts and steal orders must be invisible:
        // same outputs, stats, frontier, and report series for every
        // seed. This is the in-tree face of ENGINE_SHARD_STRESS=1.
        let g = generators::erdos_renyi(48, 0.1, 9, 3);
        let mut sim = Simulator::new(&g);
        let (os, ss) = sim.run(|_, _| Flood { have: false });
        for threads in [1, 3] {
            for seed in 0..6u64 {
                let mut eng = Engine::with_threads(&g, threads);
                eng.set_shard_stress_seed(Some(seed));
                eng.set_record_metrics(true);
                let (oe, se) = eng.run(|_, _| Flood { have: false });
                assert_eq!(os, oe, "outputs (threads={threads}, seed={seed})");
                assert_eq!(ss, se, "stats (threads={threads}, seed={seed})");
                assert_eq!(
                    sim.frontier_total(),
                    Executor::frontier_total(&eng),
                    "frontier (threads={threads}, seed={seed})"
                );
            }
        }
    }

    /// Same program as the simulator's combining unit test: node 0
    /// stages `k` same-key messages in one burst; the min-combiner
    /// collapses them to one survivor.
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
        fn combine_key(&self, msg: &Message) -> Option<Word> {
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
    fn combiner_matches_simulator_bit_for_bit() {
        let g = generators::cycle(8, 1);
        let mut sim = Simulator::new(&g);
        let (os, ss) = sim.run(|_, _| KeyedBurst {
            k: 10,
            got: Vec::new(),
        });
        assert_eq!(ss.messages_combined, 9, "the burst merged");
        assert_eq!(ss.messages_delivered(), ss.messages - 9);
        for threads in [1, 2, 3] {
            let mut eng = Engine::with_threads(&g, threads);
            eng.set_record_metrics(true);
            let (oe, se) = eng.run(|_, _| KeyedBurst {
                k: 10,
                got: Vec::new(),
            });
            assert_eq!(os, oe, "outputs (threads={threads})");
            assert_eq!(ss, se, "stats incl. combine counters (threads={threads})");
            assert_eq!(
                sim.frontier_total(),
                Executor::frontier_total(&eng),
                "frontier (threads={threads})"
            );
            let report = eng.last_report().expect("recording enabled");
            assert_eq!(report.messages_combined, se.messages_combined);
            assert_eq!(report.messages_delivered, se.messages_delivered());
        }
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g0 = lightgraph::Graph::new(0);
        let mut e0 = Engine::new(&g0);
        let (out, stats) = e0.run(|_, _| Flood { have: false });
        assert!(out.is_empty());
        assert_eq!(stats, RunStats::default());

        let g1 = lightgraph::Graph::new(1);
        let mut e1 = Engine::new(&g1);
        let (out, stats) = e1.run(|_, _| Flood { have: false });
        assert_eq!(out.len(), 1);
        assert_eq!(stats.rounds, 0);
    }

    /// A trace writer the test reads back.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Configures `root`, runs it twice, and checks that its totals
    /// accumulate and that a sub-executor inherits every setting — the
    /// cap, the round guard, metrics recording, node stats and the
    /// trace sink — while its own totals start at zero.
    fn check_sub_inherits<'g, E: Executor<'g>>(mut root: E, name: &str) {
        let written = Arc::new(Mutex::new(Vec::new()));
        let sink = congest::TraceSink::shared(Box::new(SharedBuf(written.clone())));
        root.set_cap(5);
        root.set_max_rounds(100);
        root.set_record_metrics(true);
        root.set_record_node_stats(true);
        root.set_trace(Some(sink.clone()));
        root.run(|_, _| Burst { k: 3, received: 0 });
        root.run(|_, _| Burst { k: 10, received: 0 });
        assert_eq!(root.total().rounds, 1 + 2, "{name}: totals accumulate");

        let h = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let mut sub = root.sub(&h);
        assert_eq!(sub.cap(), 5, "{name}: cap");
        assert_eq!(sub.total(), RunStats::default(), "{name}: zero totals");
        assert_eq!(
            sub.frontier_total(),
            congest::FrontierStats::default(),
            "{name}: zero frontier totals"
        );
        assert!(sub.node_stats().is_some(), "{name}: node stats");
        let (_, stats) = sub.run(|_, _| Burst { k: 10, received: 0 });
        assert_eq!(
            stats.rounds, 2,
            "{name}: the inherited cap halves the rounds"
        );
        assert!(sub.last_report().is_some(), "{name}: metrics recording");
        sink.lock().unwrap().flush().unwrap();
        let trace = String::from_utf8(written.lock().unwrap().clone()).unwrap();
        let rounds = trace.matches("\"type\":\"round\"").count();
        assert_eq!(rounds, 3 + 2, "{name}: the sub's rounds reach the sink");

        let mut chatty = root.sub(&h);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| chatty.run(|_, _| Chatter)))
            .expect_err("the inherited round guard fires");
        let text = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("exceeded 100 rounds"), "{name}: {text:?}");
    }

    #[test]
    fn sub_executors_inherit_configuration() {
        let g = lightgraph::Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        check_sub_inherits(Simulator::new(&g), "sim");
        for threads in [1, 2] {
            let name = format!("engine({threads})");
            check_sub_inherits(Engine::with_threads(&g, threads), &name);
        }
    }
}
