//! Property tests: the parallel engine is bit-identical to the
//! sequential simulator.
//!
//! For random Erdős–Rényi and doubling-metric (random geometric)
//! instances, every algorithm reachable from the `scenario` runner —
//! BFS, collectives, MST, SLT, light spanner, Euler tour, nets,
//! doubling spanner, Bellman–Ford, and the landmark SPT — must produce
//! *exactly* the same per-node outputs and the same `RunStats` (rounds,
//! messages, and combine counters) on `congest::Simulator` and on
//! `engine::Engine`, across thread counts. This is the determinism
//! contract of `congest::exec` (see the module docs there for the eight
//! clauses an engine must honor) — the property that lets the engine
//! stand in for the simulator when reproducing the paper's round
//! counts. Clause 7 (per-edge message combining) additionally gets a
//! combined-vs-uncombined equivalence wall: a combine-correct program
//! must reach the same outputs with and without its combiner, and the
//! dense-validation mode must catch a combiner that breaks the algebra.
//! Long chain workloads — thin frontiers crawling through every shard
//! and across its cuts, one hop per round — assert outputs, `RunStats`,
//! frontier totals, and flattened span trees bit-identical across
//! thread counts and vs the Simulator.
//!
//! Test-helper conventions (determinism-contract expectations):
//! * every helper runs the algorithm *fresh* on each executor — a
//!   `Simulator` once, then an `Engine` per thread count — so the
//!   cumulative `Executor::total()` counters are comparable;
//! * outputs are compared field-by-field (not just summary metrics):
//!   under the contract the full per-node state must match bit-for-bit,
//!   so any drift is a contract violation, not tolerable noise;
//! * `RunStats` equality is asserted for the algorithm's own stats
//!   *and* (spot-checked) the executor's cumulative totals, because the
//!   contract covers every intermediate phase, not only the last one.

use congest::collective;
use congest::tree::build_bfs_tree;
use congest::{Ctx, Executor, Message, Program, Simulator};
use dist_mst::boruvka::distributed_mst;
use dist_mst::euler::distributed_euler_tour;
use dist_sssp::bellman::bellman_ford;
use dist_sssp::landmark::{approx_spt, SptConfig};
use engine::Engine;
use lightgraph::NodeId;
use lightgraph::{generators, Graph};
use lightnet::nets::net;
use lightnet::{doubling_spanner, light_spanner, shallow_light_tree};
use proptest::prelude::*;

/// Random connected instances: Erdős–Rényi for general graphs and
/// random geometric for the paper's doubling-metric workloads.
fn arb_graph() -> impl Strategy<Value = (Graph, u64)> {
    (8usize..48, 0u64..1_000, 0u64..3).prop_map(|(n, seed, kind)| {
        let g = match kind {
            0 | 1 => {
                let p = (kind + 1) as f64 * 2.0 / n as f64;
                generators::erdos_renyi(n, p.min(0.9), 50, seed)
            }
            _ => {
                let r = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
                generators::random_geometric(n, r, seed)
            }
        };
        (g, seed)
    })
}

const THREADS: [usize; 3] = [1, 3, 6];

/// Adversarial activation-contract program: a token starts at node 0
/// with a hop budget and wanders the graph. A node receiving the token
/// goes **non-quiescent** and holds it for `node % 3` silent rounds
/// (exercising empty-inbox carryover scheduling), then forwards it to
/// a deterministically chosen neighbor and goes **quiescent again** —
/// until the token (or another one: `ttl` splits in two every fourth
/// hop) reactivates it by message receipt. Every node also counts its
/// own `round` invocations, so the outputs pin down exactly which
/// rounds each engine scheduled.
struct HoldAndRelay {
    hold_left: u32,
    pending: Vec<u64>,
    tokens_seen: u64,
    invoked: u64,
}

impl Program for HoldAndRelay {
    /// (tokens received, `round` invocations executed).
    type Output = (u64, u64);

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.node() == 0 && ctx.degree() > 0 {
            self.pending.push(12);
            self.hold_left = 2;
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        self.invoked += 1;
        for (_, msg) in inbox {
            self.tokens_seen += 1;
            let ttl = msg.word(0);
            if ttl > 0 {
                if self.pending.is_empty() {
                    self.hold_left = (ctx.node() % 3) as u32;
                }
                self.pending.push(ttl - 1);
                if ttl.is_multiple_of(4) {
                    self.pending.push(ttl / 2);
                }
            }
        }
        if !self.pending.is_empty() {
            if self.hold_left == 0 {
                for (i, ttl) in self.pending.drain(..).enumerate() {
                    let nbrs = ctx.neighbors();
                    let pick = (ctx.node() + i) % nbrs.len();
                    let (to, _, _) = nbrs[pick];
                    ctx.send(to, Message::words(&[ttl]));
                }
            } else {
                self.hold_left -= 1;
            }
        }
    }

    fn is_quiescent(&self) -> bool {
        self.pending.is_empty()
    }

    fn finish(self) -> (u64, u64) {
        (self.tokens_seen, self.invoked)
    }
}

/// Thread counts for the round-heavy composite algorithms (Euler tour,
/// nets, doubling spanner, landmark SPT): one sequential and one
/// sharded engine keep the suite fast while still exercising the
/// cross-thread determinism contract.
const THREADS_HEAVY: [usize; 2] = [1, 4];

/// Multi-source min-relaxation with a *switchable* per-edge combiner
/// (clause 7): nodes `v < sources` flood `(source, distance)` updates;
/// every node keeps the per-source minimum and re-broadcasts
/// improvements. Run to quiescence the table is the exact multi-source
/// distance map — a fixed point that cannot depend on whether co-queued
/// updates for one source were delivered individually or merged, which
/// is exactly the combine-correctness obligation the proptest pins.
struct MinTable {
    sources: usize,
    use_combiner: bool,
    table: std::collections::BTreeMap<u64, u64>,
}

impl MinTable {
    fn relax(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        let mut improved: Vec<(u64, u64)> = Vec::new();
        for (from, msg) in inbox {
            let w = ctx
                .neighbors()
                .iter()
                .find(|&&(u, _, _)| u == *from)
                .map(|&(_, w, _)| w)
                .expect("sender is a neighbor");
            let (key, val) = (msg.word(0), msg.word(1).saturating_add(w));
            if self.table.get(&key).map(|&d| val < d).unwrap_or(true) {
                self.table.insert(key, val);
                improved.push((key, val));
            }
        }
        for (key, val) in improved {
            ctx.send_all(Message::words(&[key, val]));
        }
    }
}

impl Program for MinTable {
    type Output = Vec<(u64, u64)>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.node() < self.sources {
            let key = ctx.node() as u64;
            self.table.insert(key, 0);
            ctx.send_all(Message::words(&[key, 0]));
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        self.relax(ctx, inbox);
    }

    fn combine_key(&self, msg: &Message) -> Option<congest::Word> {
        self.use_combiner.then(|| msg.word(0))
    }

    fn combine(&self, queued: &Message, incoming: &Message) -> Message {
        Message::words(&[queued.word(0), queued.word(1).min(incoming.word(1))])
    }

    fn finish(self) -> Vec<(u64, u64)> {
        self.table.into_iter().collect()
    }
}

/// Clause-7 invisibility workload: node 0 emits `waves` bursts of
/// `BURST` same-key messages, one burst per round, while every other
/// node records the minimum it hears and its own invocation count.
/// With `cap >= BURST` each burst would have been delivered whole in
/// one round anyway, so combining must be *fully* invisible — outputs,
/// per-node invocation counts, rounds, and sent-message counts stay
/// bit-identical; only the delivered volume shrinks.
const BURST: u64 = 3;

struct BurstBeacon {
    use_combiner: bool,
    waves_left: u64,
    min_seen: u64,
    invoked: u64,
}

impl Program for BurstBeacon {
    /// (minimum value heard, `round` invocations executed).
    type Output = (u64, u64);

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.node() != 0 {
            self.waves_left = 0;
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        self.invoked += 1;
        for (_, msg) in inbox {
            self.min_seen = self.min_seen.min(msg.word(1));
        }
        if ctx.node() == 0 && self.waves_left > 0 {
            self.waves_left -= 1;
            let wave = self.waves_left;
            for i in 0..BURST {
                ctx.send_all(Message::words(&[7, wave * 10 + i]));
            }
        }
    }

    fn is_quiescent(&self) -> bool {
        self.waves_left == 0
    }

    fn combine_key(&self, msg: &Message) -> Option<congest::Word> {
        self.use_combiner.then(|| msg.word(0))
    }

    fn combine(&self, queued: &Message, incoming: &Message) -> Message {
        Message::words(&[queued.word(0), queued.word(1).min(incoming.word(1))])
    }

    fn finish(self) -> (u64, u64) {
        (self.min_seen, self.invoked)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_bfs_tree_identical((g, _seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let (ts, ss) = build_bfs_tree(&mut sim, 0);
        for threads in THREADS {
            let mut eng = Engine::with_threads(&g, threads);
            let (te, se) = build_bfs_tree(&mut eng, 0);
            prop_assert_eq!(ss, se, "stats (threads={})", threads);
            prop_assert_eq!(&ts.parent, &te.parent, "parents (threads={})", threads);
            prop_assert_eq!(&ts.depth, &te.depth, "depths (threads={})", threads);
            prop_assert_eq!(&ts.children, &te.children, "children (threads={})", threads);
            prop_assert_eq!(Executor::total(&sim).rounds > 0, Executor::total(&eng).rounds > 0);
        }
    }

    #[test]
    fn prop_broadcast_and_convergecast_identical((g, seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let items: Vec<collective::Item> =
            (0..10).map(|i| (i + seed % 5, [i * 3, i + 1])).collect();
        let (bs, bss) = collective::broadcast(&mut sim, &tau, items.clone());
        let (cs, css) = collective::gather_merged(&mut sim, &tau, |v| {
            vec![((v % 7) as u64, [(v * 31 % 13) as u64, v as u64])]
        });
        for threads in THREADS {
            let mut eng = Engine::with_threads(&g, threads);
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            prop_assert_eq!(&tau.parent, &tau_e.parent);
            let (be, bse) = collective::broadcast(&mut eng, &tau_e, items.clone());
            prop_assert_eq!(&bs, &be, "broadcast outputs (threads={})", threads);
            prop_assert_eq!(bss, bse, "broadcast stats (threads={})", threads);
            let (ce, cse) = collective::gather_merged(&mut eng, &tau_e, |v| {
                vec![((v % 7) as u64, [(v * 31 % 13) as u64, v as u64])]
            });
            prop_assert_eq!(&cs, &ce, "converge outputs (threads={})", threads);
            prop_assert_eq!(css, cse, "converge stats (threads={})", threads);
        }
    }

    #[test]
    fn prop_mst_identical((g, seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let ms = distributed_mst(&mut sim, &tau, seed);
        for threads in THREADS {
            let mut eng = Engine::with_threads(&g, threads);
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            let me = distributed_mst(&mut eng, &tau_e, seed);
            prop_assert_eq!(ms.weight, me.weight, "weight (threads={})", threads);
            prop_assert_eq!(&ms.mst_edges, &me.mst_edges, "edges (threads={})", threads);
            prop_assert_eq!(ms.stats, me.stats, "stats (threads={})", threads);
            prop_assert_eq!(
                Executor::total(&sim).messages,
                Executor::total(&eng).messages,
                "cumulative messages (threads={})", threads
            );
        }
    }

    #[test]
    fn prop_slt_identical((g, seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let ss = shallow_light_tree(&mut sim, &tau, 0, 0.5, seed);
        for threads in THREADS {
            let mut eng = Engine::with_threads(&g, threads);
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            let se = shallow_light_tree(&mut eng, &tau_e, 0, 0.5, seed);
            prop_assert_eq!(&ss.edges, &se.edges, "tree edges (threads={})", threads);
            prop_assert_eq!(ss.breakpoints, se.breakpoints, "breakpoints (threads={})", threads);
            prop_assert_eq!(ss.stats, se.stats, "stats (threads={})", threads);
        }
    }

    #[test]
    fn prop_light_spanner_identical((g, seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let ss = light_spanner(&mut sim, &tau, 0, 2, 0.5, seed);
        for threads in THREADS_HEAVY {
            let mut eng = Engine::with_threads(&g, threads);
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            let se = light_spanner(&mut eng, &tau_e, 0, 2, 0.5, seed);
            prop_assert_eq!(&ss.edges, &se.edges, "spanner edges (threads={})", threads);
            prop_assert_eq!(ss.case1_buckets, se.case1_buckets, "case1 (threads={})", threads);
            prop_assert_eq!(ss.case2_buckets, se.case2_buckets, "case2 (threads={})", threads);
            prop_assert_eq!(ss.stats, se.stats, "stats (threads={})", threads);
        }
    }

    #[test]
    fn prop_euler_tour_identical((g, seed) in arb_graph()) {
        use congest::obs;
        let mut sim = Simulator::new(&g);
        let (ts, tree_s) = obs::collect_spans(|| {
            let (tau, _) = build_bfs_tree(&mut sim, 0);
            let mst_s = distributed_mst(&mut sim, &tau, seed);
            distributed_euler_tour(&mut sim, &tau, &mst_s, 0)
        });
        // The batched-contraction tour must still equal the sequential
        // Section-3 tour of the (unique) MST, not just agree with itself
        // across engines.
        {
            let mut ref_sim = Simulator::new(&g);
            let (tau, _) = build_bfs_tree(&mut ref_sim, 0);
            let mst = distributed_mst(&mut ref_sim, &tau, seed);
            let t = lightgraph::tree::RootedTree::from_edge_ids(&g, &mst.mst_edges, 0);
            let reference = t.euler_tour();
            let (seq, times) = ts.assemble();
            prop_assert_eq!(&seq, &reference.seq, "tour sequence vs sequential reference");
            prop_assert_eq!(&times, &reference.times, "tour times vs sequential reference");
        }
        for threads in THREADS_HEAVY {
            let mut eng = Engine::with_threads(&g, threads);
            let (te, tree_e) = obs::collect_spans(|| {
                let (tau_e, _) = build_bfs_tree(&mut eng, 0);
                let mst_e = distributed_mst(&mut eng, &tau_e, seed);
                distributed_euler_tour(&mut eng, &tau_e, &mst_e, 0)
            });
            prop_assert_eq!(&ts.appearances, &te.appearances, "appearances (threads={})", threads);
            prop_assert_eq!(ts.total_length, te.total_length, "tour length (threads={})", threads);
            prop_assert_eq!(ts.stats, te.stats, "stats (threads={})", threads);
            prop_assert_eq!(
                Executor::total(&sim),
                Executor::total(&eng),
                "cumulative totals (threads={})", threads
            );
            // Full span tree (grow/merge under mst; frag_tree/reroot/
            // times under tour) must be bit-identical in every
            // deterministic column.
            let fs = tree_s.flatten();
            let fe = tree_e.flatten();
            prop_assert_eq!(fs.len(), fe.len(), "span count (threads={})", threads);
            for ((ps, node_s), (pe, node_e)) in fs.iter().zip(&fe) {
                prop_assert_eq!(ps, pe, "span path (threads={})", threads);
                prop_assert_eq!(node_s.stats, node_e.stats, "span stats at {} (threads={})", ps, threads);
                prop_assert_eq!(
                    node_s.invocations, node_e.invocations,
                    "invocations at {} (threads={})", ps, threads
                );
                prop_assert_eq!(
                    node_s.sched_rounds, node_e.sched_rounds,
                    "sched_rounds at {} (threads={})", ps, threads
                );
            }
        }
    }

    #[test]
    fn prop_nets_identical((g, seed) in arb_graph()) {
        let delta = (g.max_weight() / 4).max(1);
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let ns = net(&mut sim, &tau, delta, 0.5, seed);
        for threads in THREADS_HEAVY {
            let mut eng = Engine::with_threads(&g, threads);
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            let ne = net(&mut eng, &tau_e, delta, 0.5, seed);
            prop_assert_eq!(&ns.points, &ne.points, "net points (threads={})", threads);
            prop_assert_eq!(ns.iterations, ne.iterations, "iterations (threads={})", threads);
            prop_assert_eq!(ns.stats, ne.stats, "stats (threads={})", threads);
        }
    }

    #[test]
    fn prop_doubling_spanner_identical((g, seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let ds = doubling_spanner(&mut sim, &tau, 0.5, seed);
        for threads in THREADS_HEAVY {
            let mut eng = Engine::with_threads(&g, threads);
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            let de = doubling_spanner(&mut eng, &tau_e, 0.5, seed);
            prop_assert_eq!(&ds.edges, &de.edges, "spanner edges (threads={})", threads);
            prop_assert_eq!(ds.scales, de.scales, "scales (threads={})", threads);
            prop_assert_eq!(ds.stats, de.stats, "stats (threads={})", threads);
        }
    }

    #[test]
    fn prop_bellman_ford_identical((g, _seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let rs = bellman_ford(&mut sim, 0);
        for threads in THREADS {
            let mut eng = Engine::with_threads(&g, threads);
            let re = bellman_ford(&mut eng, 0);
            prop_assert_eq!(&rs.dist, &re.dist, "distances (threads={})", threads);
            prop_assert_eq!(&rs.parent, &re.parent, "parents (threads={})", threads);
            prop_assert_eq!(rs.stats, re.stats, "stats (threads={})", threads);
        }
    }

    #[test]
    fn prop_landmark_spt_identical((g, seed) in arb_graph()) {
        let cfg = SptConfig::new(seed);
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let ss = approx_spt(&mut sim, &tau, 0, &cfg);
        for threads in THREADS_HEAVY {
            let mut eng = Engine::with_threads(&g, threads);
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            let se = approx_spt(&mut eng, &tau_e, 0, &cfg);
            prop_assert_eq!(&ss.dist, &se.dist, "estimates (threads={})", threads);
            prop_assert_eq!(&ss.parent, &se.parent, "parents (threads={})", threads);
            prop_assert_eq!(ss.stats, se.stats, "stats (threads={})", threads);
        }
    }

    /// The adaptive probe usually certifies shallow random instances,
    /// so the default-config property above mostly exercises the
    /// probe-only fast path. This variant forces the full landmark
    /// scheme (explicit `landmarks`) under a hop bound tight enough to
    /// truncate, pinning the multi-source relaxation, the unordered-
    /// pair combiner-aware gather, and the landmark-graph broadcast
    /// bit-identical across engines.
    #[test]
    fn prop_landmark_spt_forced_scheme_identical((g, seed) in arb_graph()) {
        let cfg = SptConfig {
            landmarks: Some((g.n() / 4).max(1)),
            hop_bound: Some(3),
            ..SptConfig::new(seed)
        };
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let ss = approx_spt(&mut sim, &tau, 0, &cfg);
        for threads in THREADS_HEAVY {
            let mut eng = Engine::with_threads(&g, threads);
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            let se = approx_spt(&mut eng, &tau_e, 0, &cfg);
            prop_assert_eq!(&ss.dist, &se.dist, "estimates (threads={})", threads);
            prop_assert_eq!(&ss.parent, &se.parent, "parents (threads={})", threads);
            prop_assert_eq!(ss.stats, se.stats, "stats (threads={})", threads);
            prop_assert_eq!(
                Executor::frontier_total(&eng),
                sim.frontier_total(),
                "frontier stats (threads={})", threads
            );
            prop_assert_eq!(Executor::peaks(&eng), sim.peaks(), "peaks (threads={})", threads);
        }
    }

    /// Activation semantics: programs that go quiescent and later
    /// reactivate on message receipt must behave identically on the
    /// simulator (the frontier-scheduling oracle) and the engine at
    /// every thread count — including the per-node invocation counts,
    /// which pin down *exactly* which rounds each engine scheduled.
    #[test]
    fn prop_reactivation_identical((g, _seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let (os, ss) = sim.run(|_, _| HoldAndRelay {
            hold_left: 0,
            pending: Vec::new(),
            tokens_seen: 0,
            invoked: 0,
        });
        let (fs, ps) = (sim.frontier_total(), sim.peaks());
        // The frontier bookkeeping is honest: counted invocations equal
        // what the programs observed.
        prop_assert_eq!(fs.invocations, os.iter().map(|&(_, i)| i).sum::<u64>());
        prop_assert!(fs.peak_active <= g.n() as u64);
        for threads in THREADS {
            let mut eng = Engine::with_threads(&g, threads);
            let (oe, se) = eng.run(|_, _| HoldAndRelay {
                hold_left: 0,
                pending: Vec::new(),
                tokens_seen: 0,
                invoked: 0,
            });
            prop_assert_eq!(&os, &oe, "outputs (threads={})", threads);
            prop_assert_eq!(ss, se, "stats (threads={})", threads);
            prop_assert_eq!(
                fs, Executor::frontier_total(&eng),
                "frontier stats (threads={})", threads
            );
            prop_assert_eq!(ps, Executor::peaks(&eng), "peaks (threads={})", threads);
        }
    }

    /// Frontier totals agree across engines for a real composite
    /// algorithm too (BFS tree + MST: many intermediate runs).
    #[test]
    fn prop_mst_frontier_totals_identical((g, seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        distributed_mst(&mut sim, &tau, seed);
        for threads in [1usize, 4] {
            let mut eng = Engine::with_threads(&g, threads);
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            distributed_mst(&mut eng, &tau_e, seed);
            prop_assert_eq!(
                sim.frontier_total(),
                Executor::frontier_total(&eng),
                "cumulative frontier stats (threads={})", threads
            );
            prop_assert_eq!(
                sim.peaks(), Executor::peaks(&eng),
                "cumulative peaks (threads={})", threads
            );
        }
    }

    /// Clause-7 equivalence, the combined-vs-uncombined wall: a
    /// combine-correct relaxation must reach bit-identical outputs with
    /// and without its combiner (the combiner may only compress the
    /// trajectory — fewer deliveries, never-more rounds), and the
    /// combined run must stay bit-identical across engines and thread
    /// counts, *including* the new combine counters.
    #[test]
    fn prop_combining_preserves_relaxation_outputs((g, _seed) in arb_graph()) {
        let k = (g.n() / 3).max(1);
        let mut sim_u = Simulator::new(&g);
        let (ou, su) = sim_u.run(|_, _| MinTable {
            sources: k, use_combiner: false, table: Default::default(),
        });
        prop_assert_eq!(su.messages_combined, 0, "no combiner, no merges");
        prop_assert_eq!(su.messages_delivered(), su.messages);
        let mut sim_c = Simulator::new(&g);
        let (oc, sc) = sim_c.run(|_, _| MinTable {
            sources: k, use_combiner: true, table: Default::default(),
        });
        prop_assert_eq!(&ou, &oc, "combining changed the fixed point");
        prop_assert!(sc.messages_delivered() <= su.messages_delivered(),
            "combining may only shrink delivered volume");
        prop_assert!(sc.rounds <= su.rounds, "combining may only shrink the backlog");
        for threads in THREADS {
            let mut eng = Engine::with_threads(&g, threads);
            let (oe, se) = eng.run(|_, _| MinTable {
                sources: k, use_combiner: true, table: Default::default(),
            });
            prop_assert_eq!(&oc, &oe, "outputs (threads={})", threads);
            prop_assert_eq!(sc, se, "stats incl. combine counters (threads={})", threads);
            prop_assert_eq!(
                sim_c.frontier_total(), Executor::frontier_total(&eng),
                "frontier stats (threads={})", threads
            );
            prop_assert_eq!(sim_c.peaks(), Executor::peaks(&eng), "peaks (threads={})", threads);
        }
    }

    /// Clause-7 invisibility: when the cap does not bind (every burst
    /// would have crossed in one round anyway), combining must leave
    /// outputs, per-node invocation counts, rounds, and sent-message
    /// counts bit-identical — only `messages_combined` moves.
    #[test]
    fn prop_combining_with_slack_cap_is_invisible((g, _seed) in arb_graph(), waves in 1u64..4) {
        let cap = BURST as usize + 1;
        let run_sim = |comb: bool| {
            let mut sim = Simulator::new(&g);
            Executor::set_cap(&mut sim, cap);
            let (o, s) = sim.run(|_, _| BurstBeacon {
                use_combiner: comb, waves_left: waves, min_seen: u64::MAX, invoked: 0,
            });
            (o, s, sim.frontier_total(), sim.peaks())
        };
        let (ou, su, fu, _) = run_sim(false);
        let (oc, sc, fc, pc) = run_sim(true);
        prop_assert_eq!(&ou, &oc, "outputs incl. per-node invocation counts");
        prop_assert_eq!(su.rounds, sc.rounds, "rounds");
        prop_assert_eq!(su.messages, sc.messages, "sent messages");
        prop_assert_eq!(fu, fc, "frontier accounting");
        prop_assert_eq!(su.messages_combined, 0);
        let expect_merged = waves * (BURST - 1) * g.degree(0) as u64;
        prop_assert_eq!(sc.messages_combined, expect_merged, "every burst merged");
        prop_assert_eq!(sc.messages_delivered(), su.messages - expect_merged);
        for threads in [1usize, 4] {
            let mut eng = Engine::with_threads(&g, threads);
            Executor::set_cap(&mut eng, cap);
            let (oe, se) = eng.run(|_, _| BurstBeacon {
                use_combiner: true, waves_left: waves, min_seen: u64::MAX, invoked: 0,
            });
            prop_assert_eq!(&oc, &oe, "outputs (threads={})", threads);
            prop_assert_eq!(sc, se, "stats (threads={})", threads);
            prop_assert_eq!(pc, Executor::peaks(&eng), "peaks (threads={})", threads);
        }
    }

    /// Combiner-aware collectives wall: the eager convergecast
    /// (`converge_merged`) must (a) reach the sequential fold of every
    /// vertex's items under the merge, (b) be bit-identical to its own
    /// *non-combined* variant in outputs while never delivering more,
    /// (c) be fully bit-identical to the non-combined variant —
    /// outputs, `RunStats`, frontier totals — when the cap does not
    /// bind (nothing ever co-queues), and (d) be bit-identical across
    /// Simulator and Engine, combine counters and frontier totals
    /// included.
    #[test]
    fn prop_combiner_aware_collectives_identical((g, seed) in arb_graph()) {
        let items = move |v: NodeId| vec![
            (((v as u64) * 7 + seed) % 9, [(v as u64 * 31 + seed) % 23, v as u64]),
            ((v % 5) as u64 + 100, [(v as u64).wrapping_mul(13) % 19, v as u64]),
        ];
        let merge = |_: congest::Word, a: [congest::Word; 2], b: [congest::Word; 2]| a.min(b);
        let run_sim = |combined: bool, cap: usize| {
            let mut sim = Simulator::new(&g);
            Executor::set_cap(&mut sim, cap);
            let (tau, _) = build_bfs_tree(&mut sim, 0);
            let (map, stats) =
                collective::converge_merged_with(&mut sim, &tau, items, merge, combined);
            (map, stats, (sim.frontier_total(), sim.peaks()))
        };
        // (a) same root map as the sequential fold.
        let mut fold = std::collections::BTreeMap::new();
        for (k, val) in (0..g.n()).flat_map(items) {
            let cur = *fold.entry(k).or_insert(val);
            fold.insert(k, merge(k, cur, val));
        }
        let (map_c, stats_c, frontier_c) = run_sim(true, 1);
        prop_assert_eq!(&fold, &map_c, "eager root map vs sequential fold");
        // (b) non-combined eager path: same outputs, never fewer merges.
        let (map_u, stats_u, _) = run_sim(false, 1);
        prop_assert_eq!(&map_c, &map_u, "combining changed the root map");
        prop_assert_eq!(stats_u.messages_combined, 0);
        prop_assert!(stats_c.messages_delivered() <= stats_u.messages_delivered());
        prop_assert!(stats_c.rounds <= stats_u.rounds);
        // (c) slack cap ⇒ nothing co-queues ⇒ full bit-identity.
        let slack = g.n().max(8);
        let (map_cs, stats_cs, frontier_cs) = run_sim(true, slack);
        let (map_us, stats_us, frontier_us) = run_sim(false, slack);
        prop_assert_eq!(&map_cs, &map_us);
        prop_assert_eq!(stats_cs, stats_us, "slack-cap runs must be bit-identical");
        prop_assert_eq!(frontier_cs, frontier_us);
        // (d) cross-engine bit-identity for the combined path.
        for threads in THREADS {
            let mut eng = Engine::with_threads(&g, threads);
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            let (map_e, stats_e) =
                collective::converge_merged(&mut eng, &tau_e, items, merge);
            prop_assert_eq!(&map_c, &map_e, "outputs (threads={})", threads);
            prop_assert_eq!(stats_c, stats_e, "stats (threads={})", threads);
            prop_assert_eq!(
                frontier_c, (Executor::frontier_total(&eng), Executor::peaks(&eng)),
                "frontier stats and peaks (threads={})", threads
            );
        }
    }

    /// Clauses 3–5 on long chains (paths, combs, caterpillars): the
    /// `HoldAndRelay` token crawls one hop per round deep inside shards
    /// and across their cuts, so a thin frontier sits in one shard while
    /// the others idle — the most skewed load the work-stealing schedule
    /// sees. Outputs — including per-node invocation counts, which pin
    /// the exact schedule — `RunStats`, and frontier totals must stay
    /// bit-identical across `threads ∈ {1, 2, 4, 8}` and vs the
    /// Simulator.
    #[test]
    fn prop_chain_relays_identical(
        n in 48usize..144, seed in 0u64..500, kind in 0u64..3
    ) {
        let g = match kind {
            0 => generators::path(n, 3),
            1 => generators::comb(n / 6 + 2, 4),
            _ => generators::caterpillar(n / 4 + 1, 2, seed),
        };
        let mut sim = Simulator::new(&g);
        let (os, ss) = sim.run(|_, _| HoldAndRelay {
            hold_left: 0, pending: Vec::new(), tokens_seen: 0, invoked: 0,
        });
        let (fs, ps) = (sim.frontier_total(), sim.peaks());
        for threads in [1usize, 2, 4, 8] {
            let mut eng = Engine::with_threads(&g, threads);
            let (oe, se) = eng.run(|_, _| HoldAndRelay {
                hold_left: 0, pending: Vec::new(), tokens_seen: 0, invoked: 0,
            });
            prop_assert_eq!(&os, &oe, "outputs (threads={})", threads);
            prop_assert_eq!(ss, se, "stats (threads={})", threads);
            prop_assert_eq!(
                fs, Executor::frontier_total(&eng),
                "frontier stats (threads={})", threads
            );
            prop_assert_eq!(ps, Executor::peaks(&eng), "peaks (threads={})", threads);
        }
    }

    #[test]
    fn prop_cap_ablation_identical((g, _seed) in arb_graph(), cap in 1usize..4) {
        let mut sim = Simulator::new(&g);
        Executor::set_cap(&mut sim, cap);
        let (ts, ss) = build_bfs_tree(&mut sim, 0);
        let mut eng = Engine::with_threads(&g, 4);
        Executor::set_cap(&mut eng, cap);
        let (te, se) = build_bfs_tree(&mut eng, 0);
        prop_assert_eq!(ss, se, "stats at cap {}", cap);
        prop_assert_eq!(ts.parent, te.parent);
    }
}

/// Runs `algorithm` on `g` twice, plainly and under the simulator's
/// activation validator, and asserts that stats, output and frontier
/// accounting agree.
fn assert_validator_agrees(g: &Graph, algorithm: &str) {
    let params = engine::scenario::AlgoParams::default();
    let mut plain = Simulator::new(g);
    let (stats_p, _, metric_p) =
        engine::scenario::drive(&mut plain, algorithm, &params, 7).expect("runs");
    let mut validated = Simulator::new(g);
    validated.set_validate_activation(true);
    let (stats_v, _, metric_v) =
        engine::scenario::drive(&mut validated, algorithm, &params, 7).expect("runs");
    assert_eq!(
        stats_p, stats_v,
        "{algorithm}: dense schedule changed stats"
    );
    assert_eq!(
        metric_p, metric_v,
        "{algorithm}: dense schedule changed output"
    );
    assert_eq!(
        plain.frontier_total(),
        validated.frontier_total(),
        "{algorithm}: frontier accounting differs under validation"
    );
    assert_eq!(
        plain.peaks(),
        validated.peaks(),
        "{algorithm}: peaks differ under validation"
    );
}

/// The dense-schedule reference, restored as a mode: the simulator's
/// activation validator ticks every node every round (the pre-frontier
/// schedule), asserting that would-be-skipped ticks are no-ops. All
/// nine scenario algorithms must produce identical stats, outputs, and
/// frontier accounting under both schedules — this is what catches an
/// activation-*incorrect* program, which would drift identically on
/// both frontier engines and so slip past the engine-vs-simulator
/// properties above.
#[test]
fn all_algorithms_pass_the_activation_validator() {
    let g = engine::scenario::build_graph("geometric", 64, 100, 7).expect("pinned family");
    for algorithm in engine::scenario::ALGORITHMS {
        assert_validator_agrees(&g, algorithm);
    }
}

/// The MST-based families under the validator on an instance where
/// Borůvka's phase 1 freezes fragments well before it ends. Frozen
/// fragments sit out the growth passes, and tails that join one learn
/// its status from the ACC reply and the relabel flood; those paths
/// must be activation-correct too.
#[test]
fn mst_families_pass_the_activation_validator_while_fragments_freeze() {
    let g = engine::scenario::build_graph("geometric", 128, 100, 7).expect("pinned family");
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let schedule = distributed_mst(&mut sim, &tau, 7).phase1_schedule;
    let (_, before_last) = schedule.split_last().expect("phase 1 runs");
    assert!(
        before_last
            .iter()
            .filter(|&&(fragments, active)| active < fragments)
            .count()
            >= 3,
        "phase 1 must freeze fragments for several iterations: {schedule:?}"
    );
    for algorithm in ["mst", "slt", "spanner", "euler", "doubling"] {
        assert_validator_agrees(&g, algorithm);
    }
}

/// The clause-7 counterpart of the activation validator: an
/// order-sensitive (non-associative, non-commutative) combiner slips
/// past the engine-vs-simulator properties — both engines apply the
/// same broken merge and drift identically — so the dense-validation
/// mode is the guard: it re-folds every merged delivery in reverse
/// order and must panic on the mismatch.
#[test]
#[should_panic(expected = "not associative/commutative")]
fn dense_validator_catches_a_non_associative_combiner() {
    /// Merge = saturating difference: `a ⊖ b != b ⊖ a`.
    struct Subtractor;
    impl Program for Subtractor {
        type Output = ();
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node() == 0 {
                ctx.send(1, Message::words(&[3, 50]));
                ctx.send(1, Message::words(&[3, 20]));
            }
        }
        fn round(&mut self, _ctx: &mut Ctx<'_>, _inbox: &[(NodeId, Message)]) {}
        fn combine_key(&self, msg: &Message) -> Option<congest::Word> {
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
    sim.run(|_, _| Subtractor);
}

/// On a pinned instance the relaxation combiner demonstrably fires —
/// guarding against a regression that silently turns combining into a
/// no-op (the equivalence properties above would still pass).
#[test]
fn relaxation_combiner_fires_on_a_pinned_instance() {
    let g = generators::random_geometric(48, 0.35, 11);
    let mut sim = Simulator::new(&g);
    let (_, stats) = sim.run(|_, _| MinTable {
        sources: 16,
        use_combiner: true,
        table: Default::default(),
    });
    assert!(
        stats.messages_combined > 0,
        "expected merges on a 16-source relaxation, got none"
    );
    assert_eq!(
        stats.messages_delivered(),
        stats.messages - stats.messages_combined
    );
}

/// The combiner-aware gather's clause-7 merge demonstrably fires on a
/// pinned SLT-style landmark gather — the exact shape `approx_spt`
/// ships: a hop-truncated multi-source exploration whose pairwise
/// bounded distances are gathered under unordered-pair keys with a
/// min merge. Truncation under heterogeneous weights makes the two
/// endpoints of a pair report *different* genuine path lengths, and
/// the superseded report must merge into its co-queued rival in
/// flight. Guards against a regression that silently turns the
/// collectives' combining into a no-op (the equivalence properties
/// above would still pass).
#[test]
fn gather_combiner_fires_on_a_pinned_slt_instance() {
    use dist_sssp::bellman::multi_source_bounded;
    use lightgraph::INF;

    let g = generators::erdos_renyi(120, 0.06, 1000, 5);
    let mut sim = Simulator::new(&g);
    let (tau, _) = build_bfs_tree(&mut sim, 0);
    let sources: Vec<NodeId> = (0..g.n()).step_by(3).collect();
    let ms = multi_source_bounded(&mut sim, &sources, INF, 4);
    assert!(ms.truncated, "the hop bound must bite for this regime");
    let before = sim.total();
    let ms_ref = &ms;
    let srcs = &ms.sources;
    let (pairs, _) = collective::gather_merged(&mut sim, &tau, |v| {
        if let Ok(vi) = srcs.binary_search(&v) {
            ms_ref.tables[v]
                .iter_reached()
                .filter(|&(si, _, _)| si != vi)
                .map(|(si, d, _)| {
                    let (a, b) = if si < vi { (si, vi) } else { (vi, si) };
                    (congest::pack2(a as u64, b as u64), [d, 0])
                })
                .collect()
        } else {
            Vec::new()
        }
    });
    let delta = sim.total().since(before);
    assert!(
        delta.messages_combined > 0,
        "expected the in-flight gather merge to fire, got none"
    );
    // The gathered landmark graph is sane: every pair's distance is the
    // minimum of the two endpoints' reports.
    for (&key, &val) in &pairs {
        let (a, b) = congest::unpack2(key);
        assert!(a < b, "unordered pair keys are canonical");
        let d_ab = ms.dist(ms.sources[a as usize], ms.sources[b as usize]);
        let d_ba = ms.dist(ms.sources[b as usize], ms.sources[a as usize]);
        let want = d_ab.into_iter().chain(d_ba).min().expect("pair reported");
        assert_eq!(val[0], want, "pair ({a},{b})");
    }
}

/// A BFS wave over a long path is the canonical frontier workload: the
/// run needs ~n rounds but each node is active only O(1) of them.
/// Skipping the idle rounds must leave outputs and `RunStats` exactly
/// as a dense schedule would (pinned analytically here), while the
/// invocation count drops from Θ(n²) to Θ(n).
#[test]
fn path_wave_skips_idle_rounds_without_changing_outputs() {
    let n = 96;
    let g = generators::path(n, 1);
    let mut sim = Simulator::new(&g);
    let (tree, stats) = build_bfs_tree(&mut sim, 0);
    // Dense-schedule facts, independent of frontier scheduling: the
    // wave takes one round per hop plus the child-notification drain.
    assert_eq!(tree.height(), n as u64 - 1);
    assert_eq!(stats.rounds, n as u64 + 1);
    let f = sim.frontier_total();
    assert!(
        f.invocations <= 4 * n as u64,
        "wave must cost O(n) invocations, got {} (dense would be {})",
        f.invocations,
        stats.rounds * n as u64
    );
    // The engine schedules the identical frontier.
    for threads in THREADS {
        let mut eng = Engine::with_threads(&g, threads);
        let (te, se) = build_bfs_tree(&mut eng, 0);
        assert_eq!(te.parent, tree.parent, "threads={threads}");
        assert_eq!(se, stats, "threads={threads}");
        assert_eq!(Executor::frontier_total(&eng), f, "threads={threads}");
        assert_eq!(Executor::peaks(&eng), sim.peaks(), "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Clause 8 (observer neutrality) + the per-node histograms:
    /// attaching observers (per-node counters and a trace sink) must
    /// perturb nothing — outputs, `RunStats`, frontier totals all
    /// bit-identical to an unobserved run — while the counters
    /// themselves sum to the run totals and the full per-node vectors
    /// are bit-identical across engines and thread counts.
    #[test]
    fn prop_node_histograms_sum_and_observers_are_neutral((g, seed) in arb_graph()) {
        use congest::TraceSink;
        // Baseline: no observers attached.
        let mut plain = Simulator::new(&g);
        let (tau_p, _) = build_bfs_tree(&mut plain, 0);
        let mp = distributed_mst(&mut plain, &tau_p, seed);

        // Observed run: per-node counters plus a trace sink.
        let mut sim = Simulator::new(&g);
        sim.set_record_node_stats(true);
        sim.set_trace(Some(TraceSink::shared(Box::new(std::io::sink()))));
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let ms = distributed_mst(&mut sim, &tau, seed);
        prop_assert_eq!(&mp.mst_edges, &ms.mst_edges, "observers changed outputs");
        prop_assert_eq!(mp.stats, ms.stats, "observers changed stats");
        prop_assert_eq!(Executor::total(&plain), Executor::total(&sim));
        prop_assert_eq!(plain.frontier_total(), sim.frontier_total());
        prop_assert_eq!(plain.peaks(), sim.peaks());

        let totals = Executor::total(&sim);
        let frontier = sim.frontier_total();
        let ns = Executor::node_stats(&sim).expect("recording enabled");
        prop_assert_eq!(ns.sent.iter().sum::<u64>(), totals.messages);
        prop_assert_eq!(ns.delivered.iter().sum::<u64>(), totals.messages_delivered());
        prop_assert_eq!(ns.invocations.iter().sum::<u64>(), frontier.invocations);

        for threads in THREADS_HEAVY {
            let mut eng = Engine::with_threads(&g, threads);
            eng.set_record_node_stats(true);
            eng.set_trace(Some(TraceSink::shared(Box::new(std::io::sink()))));
            let (tau_e, _) = build_bfs_tree(&mut eng, 0);
            let me = distributed_mst(&mut eng, &tau_e, seed);
            prop_assert_eq!(&ms.mst_edges, &me.mst_edges, "outputs (threads={})", threads);
            prop_assert_eq!(ms.stats, me.stats, "stats (threads={})", threads);
            let ne = Executor::node_stats(&eng).expect("recording enabled");
            prop_assert_eq!(&ns.sent, &ne.sent, "per-node sent (threads={})", threads);
            prop_assert_eq!(
                &ns.delivered, &ne.delivered,
                "per-node delivered (threads={})", threads
            );
            prop_assert_eq!(
                &ns.invocations, &ne.invocations,
                "per-node invocations (threads={})", threads
            );
            prop_assert_eq!(ns.summary(), ne.summary(), "summary (threads={})", threads);
        }
    }
}

/// The batched-contraction tour on *structured* graphs — path (deep
/// fragment chains), star (one giant fragment), grid (many same-size
/// fragments), caterpillar and comb (skewed child lists), tree+chords
/// (MST ≠ BFS tree) — is bit-identical across engines and equal to the
/// sequential Section-3 tour. Complements `prop_euler_tour_identical`,
/// which only samples random instances.
#[test]
fn euler_tour_structured_graphs_match_sequential_reference() {
    let cases: Vec<(&str, Graph)> = vec![
        ("path", generators::path(64, 3)),
        ("star", generators::star(33, 20, 5)),
        ("grid", generators::grid(8, 9, 20, 5)),
        ("caterpillar", generators::caterpillar(12, 3, 5)),
        ("comb", generators::comb(10, 4)),
        ("tree-chords", generators::tree_plus_chords(60, 20, 30, 5)),
    ];
    for (name, g) in cases {
        let mut sim = Simulator::new(&g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let mst = distributed_mst(&mut sim, &tau, 7);
        let ts = distributed_euler_tour(&mut sim, &tau, &mst, 0);

        let t = lightgraph::tree::RootedTree::from_edge_ids(&g, &mst.mst_edges, 0);
        let reference = t.euler_tour();
        let (seq, times) = ts.assemble();
        assert_eq!(seq, reference.seq, "[{name}] tour sequence");
        assert_eq!(times, reference.times, "[{name}] tour times");
        assert_eq!(ts.total_length, 2 * mst.weight, "[{name}] total length");

        let mut eng = Engine::with_threads(&g, 4);
        let (tau_e, _) = build_bfs_tree(&mut eng, 0);
        let mst_e = distributed_mst(&mut eng, &tau_e, 7);
        let te = distributed_euler_tour(&mut eng, &tau_e, &mst_e, 0);
        assert_eq!(ts.appearances, te.appearances, "[{name}] appearances");
        assert_eq!(ts.stats, te.stats, "[{name}] stats");
        assert_eq!(
            Executor::total(&sim),
            Executor::total(&eng),
            "[{name}] cumulative totals"
        );
    }
}

/// Per-round accounting under a real composite algorithm: SLT on a
/// long path runs every phase as a wave crawling a chain — thousands of
/// thin-frontier rounds, each booked from the counters its shards
/// published — and the *flattened span tree* is the strictest
/// observable: per-phase `RunStats`, invocation counts, and scheduler
/// rounds, all derived from that per-round accounting. All
/// deterministic span columns must be bit-identical across
/// `threads ∈ {1, 2, 4, 8}` and vs the Simulator; only `wall_ns` may
/// differ.
#[test]
fn chain_slt_span_tree_identical_across_threads() {
    use congest::obs;
    let g = generators::path(160, 3);
    let params = engine::scenario::AlgoParams::default();

    let mut sim = Simulator::new(&g);
    let (rs, tree_s) =
        obs::collect_spans(|| engine::scenario::drive(&mut sim, "slt", &params, 1).expect("runs"));
    let flat_s = tree_s.flatten();
    assert!(!flat_s.is_empty(), "the SLT drive must emit named spans");
    for threads in [1usize, 2, 4, 8] {
        let mut eng = Engine::with_threads(&g, threads);
        let (re, tree_e) = obs::collect_spans(|| {
            engine::scenario::drive(&mut eng, "slt", &params, 1).expect("runs")
        });
        assert_eq!(rs.0, re.0, "RunStats (threads={threads})");
        assert_eq!(rs.2, re.2, "metric (threads={threads})");
        assert_eq!(
            sim.frontier_total(),
            Executor::frontier_total(&eng),
            "frontier totals (threads={threads})"
        );
        assert_eq!(
            sim.peaks(),
            Executor::peaks(&eng),
            "peaks (threads={threads})"
        );
        let flat_e = tree_e.flatten();
        assert_eq!(flat_s.len(), flat_e.len(), "span count (threads={threads})");
        for ((ps, node_s), (pe, node_e)) in flat_s.iter().zip(&flat_e) {
            assert_eq!(ps, pe, "span path (threads={threads})");
            assert_eq!(
                node_s.stats, node_e.stats,
                "span stats at {ps} (threads={threads})"
            );
            assert_eq!(
                node_s.invocations, node_e.invocations,
                "invocations at {ps} (threads={threads})"
            );
            assert_eq!(
                node_s.sched_rounds, node_e.sched_rounds,
                "sched_rounds at {ps} (threads={threads})"
            );
        }
    }
}

/// Pinned SLT span tree at the bench workload shape (geometric n=1k,
/// seed 1): every major phase appears as a named span, the tree
/// attributes at least 95% of the root's delivered messages to named
/// sub-phases, and the deterministic span columns are bit-identical
/// across engines — only `wall_ns` is machine-dependent.
#[test]
fn slt_span_tree_is_pinned_and_engine_identical() {
    use congest::obs;
    let g = engine::scenario::build_graph("geometric", 1000, 100, 1).expect("pinned family");
    let params = engine::scenario::AlgoParams::default();

    let mut sim = Simulator::new(&g);
    let (rs, tree_s) =
        obs::collect_spans(|| engine::scenario::drive(&mut sim, "slt", &params, 1).expect("runs"));
    let mut eng = Engine::with_threads(&g, 4);
    let (re, tree_e) =
        obs::collect_spans(|| engine::scenario::drive(&mut eng, "slt", &params, 1).expect("runs"));
    assert_eq!(rs.0, re.0, "RunStats identical under span collection");
    assert_eq!(rs.2, re.2, "metric identical under span collection");

    let root = tree_s.find("slt").expect("root span");
    for phase in [
        "tau",
        "mst",
        "tour",
        "spt",
        "bp1",
        "bp2",
        "mark",
        "final_spt",
    ] {
        assert!(
            tree_s.find(phase).is_some(),
            "phase `{phase}` missing from the span tree"
        );
    }
    assert!(
        root.child_delivered() * 100 >= root.delivered() * 95,
        "named phases attribute only {} of {} delivered messages",
        root.child_delivered(),
        root.delivered()
    );

    let fs = tree_s.flatten();
    let fe = tree_e.flatten();
    assert_eq!(fs.len(), fe.len(), "span count");
    for ((ps, node_s), (pe, node_e)) in fs.iter().zip(&fe) {
        assert_eq!(ps, pe, "span path");
        assert_eq!(node_s.stats, node_e.stats, "span stats at {ps}");
        assert_eq!(
            node_s.invocations, node_e.invocations,
            "invocations at {ps}"
        );
        assert_eq!(
            node_s.sched_rounds, node_e.sched_rounds,
            "sched_rounds at {ps}"
        );
    }
}
