//! Allocation-regression guard: the message hot path is zero-alloc in
//! steady state, on both engines.
//!
//! The zero-alloc data path (see `DESIGN.md` § "Memory layout & the
//! zero-alloc data path") promises that once the per-run arenas have
//! reached their high-water capacity, delivering a message costs no
//! heap traffic: payloads are inline `[u64; 4]` words, queue storage
//! comes from recycled slab slots, and combiner lookups hit a `std`
//! `HashMap` index that keeps its capacity. This test pins that promise
//! with a counting `#[global_allocator]` and a *delta* measurement:
//! run the same workload at two message counts (after warming both so
//! every arena is at high water) and assert the larger run performs no
//! more allocations than the smaller one, up to a tiny slack. Any
//! per-message or per-round allocation would show up multiplied by the
//! extra ~9000 messages and fail loudly.
//!
//! A second, composite case runs SLT-style sub-run sequences — relax
//! sub-runs included, on the simulator and on the engine at one and two
//! threads — and caps the marginal allocations per warmed rep, so a
//! sub-run that rebuilds topology-derived structure fails too.
//!
//! The file deliberately contains a single `#[test]` so no concurrent
//! test in the same binary pollutes the global counter. Per-run
//! allocations (program vectors, output vectors) are identical between
//! the two sizes and cancel in the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use congest::relax::RelaxProgram;
use congest::{Ctx, Executor, Message, Program, Simulator, Word};
use engine::Engine;
use lightgraph::{Graph, NodeId, INF};

/// Counts allocation *events* (alloc + realloc); frees are irrelevant
/// to the guard, which only cares that the hot path requests no heap.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_events_during(f: impl FnOnce()) -> u64 {
    let start = ALLOC_EVENTS.load(Ordering::SeqCst);
    f();
    ALLOC_EVENTS.load(Ordering::SeqCst) - start
}

/// Unkeyed FIFO pressure: node 0 stages `k` three-word messages on one
/// edge in `init`; the bandwidth cap of 1 then drains them over `k`
/// rounds. Exercises the plain slab FIFO (no combiner) and the
/// per-round delivery loop at depth.
struct Burst {
    k: usize,
    received: u64,
}

impl Program for Burst {
    type Output = u64;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.node() == 0 {
            for i in 0..self.k {
                ctx.send(1, Message::words(&[i as Word, 1, 2]));
            }
        }
    }

    fn round(&mut self, _ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        self.received += inbox.len() as u64;
    }

    fn finish(self) -> u64 {
        self.received
    }
}

/// Keyed combiner churn: node 0 stays non-quiescent for `k` rounds and
/// each round stages *two* keyed messages with the same key (so the
/// second merges into the first in place), the key cycling over 8
/// values. Every message exercises the combiner index's insert →
/// merge → remove cycle; the min-combiner keeps outputs deterministic.
struct Trickle {
    left: u64,
    best: u64,
}

impl Program for Trickle {
    type Output = u64;

    fn init(&mut self, _ctx: &mut Ctx<'_>) {}

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (_, msg) in inbox {
            self.best = self.best.min(msg.word(1));
        }
        if self.left > 0 {
            self.left -= 1;
            let key = self.left % 8;
            ctx.send(1, Message::words(&[key, self.left, 7]));
            ctx.send(1, Message::words(&[key, self.left + 1, 9]));
        }
    }

    fn is_quiescent(&self) -> bool {
        self.left == 0
    }

    fn combine_key(&self, msg: &Message) -> Option<Word> {
        Some(msg.word(0))
    }

    fn combine(&self, queued: &Message, incoming: &Message) -> Message {
        Message::words(&[
            queued.word(0),
            queued.word(1).min(incoming.word(1)),
            queued.word(2).min(incoming.word(2)),
        ])
    }

    fn finish(self) -> u64 {
        self.best
    }
}

/// Broadcast churn: node 0 stays non-quiescent for `k` rounds and
/// calls `Ctx::send_all` once per round, so every round runs the
/// broadcast staging path (one message per neighbor, no per-call
/// buffer).
struct Beacon {
    left: u64,
    received: u64,
}

impl Program for Beacon {
    type Output = u64;

    fn init(&mut self, _ctx: &mut Ctx<'_>) {}

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        self.received += inbox.len() as u64;
        if self.left > 0 {
            self.left -= 1;
            ctx.send_all(Message::words(&[self.left, 3]));
        }
    }

    fn is_quiescent(&self) -> bool {
        self.left == 0
    }

    fn finish(self) -> u64 {
        self.received
    }
}

fn run_beacon<'g, E: Executor<'g>>(exec: &mut E, k: usize) {
    let (out, stats) = exec.run(|v, _| Beacon {
        left: if v == 0 { k as u64 } else { 0 },
        received: 0,
    });
    assert_eq!(out[1], k as u64, "beacon lost messages");
    assert_eq!(stats.messages, k as u64);
}

fn run_burst<'g, E: Executor<'g>>(exec: &mut E, k: usize) {
    let (out, stats) = exec.run(|v, _| Burst {
        k: if v == 0 { k } else { 0 },
        received: 0,
    });
    assert_eq!(out[1], k as u64, "burst lost messages");
    assert_eq!(stats.messages, k as u64);
}

fn run_trickle<'g, E: Executor<'g>>(exec: &mut E, k: usize) {
    let (out, stats) = exec.run(|v, _| Trickle {
        left: if v == 0 { k as u64 } else { 0 },
        best: u64::MAX,
    });
    assert_eq!(out[1], 0, "trickle min never arrived");
    assert_eq!(stats.messages, 2 * k as u64);
    assert_eq!(stats.messages_combined, k as u64, "combiner never merged");
}

/// Warms both workload sizes (so every arena — slab slots, combiner
/// index tables, touched-edge buckets, staging vectors — is at the high
/// water of the *larger* size), then asserts the big run allocates no
/// more than the small one. `SLACK` absorbs incidental one-off events
/// (e.g. lazy thread-local or OS buffers) without masking real
/// per-message traffic: a single word per message would add thousands.
const SMALL: usize = 500;
const LARGE: usize = 5000;
const SLACK: u64 = 16;

fn guard<'g, E: Executor<'g>>(exec: &mut E, engine_name: &str) {
    for (workload, run) in [
        ("burst", run_burst as fn(&mut E, usize)),
        ("trickle", run_trickle as fn(&mut E, usize)),
        ("send_all", run_beacon as fn(&mut E, usize)),
    ] {
        run(exec, SMALL);
        run(exec, LARGE);
        run(exec, SMALL);
        let small = alloc_events_during(|| run(exec, SMALL));
        let large = alloc_events_during(|| run(exec, LARGE));
        assert!(
            large <= small + SLACK,
            "{engine_name}/{workload}: {LARGE}-message run performed {large} allocation \
             events vs {small} for the {SMALL}-message run — the hot path is allocating \
             per message (see DESIGN.md, \"Memory layout & the zero-alloc data path\")"
        );
    }
}

/// One relax sub-run: node 0 seeds key 0; every reached node allocates
/// its slot table and its sorted weight list.
fn run_relax<'g, E: Executor<'g>>(exec: &mut E) {
    let (out, _) = exec.run(|v, _| {
        RelaxProgram::new(
            7,
            1,
            INF,
            u64::MAX,
            if v == 0 { vec![0] } else { Vec::new() },
        )
    });
    assert_eq!(out[1].dist(0), Some(1), "relax never reached node 1");
}

/// Composite-session guard (the run lifecycle): SLT-style workloads
/// issue hundreds of heterogeneous sub-runs against one executor. With
/// the topology and shard plan built in the constructor and the run
/// arenas reused, a *warmed* session pays only the inherent bookkeeping
/// of the `run` API per sub-run (the program and output vectors, the
/// reached nodes' relax tables, worker hand-off) — never per-sub-run
/// *setup*: shard plans, routing tables or slab geometry. The delta
/// method again: measure `REPS` warmed reps, then `2 × REPS`, and cap
/// the marginal cost of the extra reps. Rebuilding any
/// topology-derived structure per sub-run costs several allocations
/// per rep and fails the cap.
const REPS: usize = 32;
/// Marginal allocation-event budget per rep, message-only composite
/// (two sub-runs: trickle + burst). Inherent cost: ~2 events per
/// sub-run (programs + outputs) plus worker hand-off on the engine.
const PER_REP_MSG: u64 = 10;
/// Budget with the relax sub-run included (three sub-runs, plus the
/// seed vector at node 0 and both nodes' slot tables and weight
/// lists).
const PER_REP_RELAX: u64 = 16;

fn composite_guard<'g, E: Executor<'g>>(exec: &mut E, engine_name: &str, with_relax: bool) {
    fn reps<'g, E: Executor<'g>>(exec: &mut E, r: usize, with_relax: bool) {
        for _ in 0..r {
            run_trickle(exec, 16);
            run_burst(exec, 16);
            if with_relax {
                run_relax(exec);
            }
        }
    }
    reps(exec, 2, with_relax); // warm every arena to high water
    let base = alloc_events_during(|| reps(exec, REPS, with_relax));
    let double = alloc_events_during(|| reps(exec, 2 * REPS, with_relax));
    let marginal = double.saturating_sub(base); // cost of REPS extra reps
    let budget = if with_relax {
        PER_REP_RELAX
    } else {
        PER_REP_MSG
    } * REPS as u64;
    assert!(
        marginal <= budget,
        "{engine_name}/composite(relax={with_relax}): {} extra reps cost {marginal} \
         allocation events (budget {budget}) — a sub-run is paying setup again \
         (see DESIGN.md, \"Run lifecycle\")",
        REPS,
    );
}

#[test]
fn steady_state_message_path_is_allocation_free() {
    let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();

    let mut sim = Simulator::new(&g);
    guard(&mut sim, "simulator");

    let mut eng = Engine::with_threads(&g, 1);
    guard(&mut eng, "engine(1)");

    let mut eng2 = Engine::with_threads(&g, 2);
    guard(&mut eng2, "engine(2)");

    composite_guard(&mut sim, "simulator", true);
    composite_guard(&mut eng, "engine(1)", true);
    composite_guard(&mut eng2, "engine(2)", false);
    composite_guard(&mut eng2, "engine(2)", true);
}
