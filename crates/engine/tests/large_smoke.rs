//! Large-n scaling smoke: the benchmark's million-node geometric
//! instance pinned edge for edge, 100k-node geometric BFS through the
//! grid-bucketed generator and the parallel engine, the 8k-node
//! geometric SLT that the keyed-relaxation subsystem and the adaptive
//! landmark cutoff made feasible, and the 64k-node SLT that the
//! batched-contraction Euler tour and the pipelined Borůvka merge
//! made feasible.
//!
//! `#[ignore]`d so `cargo test` stays fast; the CI `large-smoke` job
//! (nightly-style schedule) runs them with `--include-ignored` so a
//! regression in generator complexity, engine scaling, or relaxation
//! message volume fails fast instead of silently pushing sweeps from
//! seconds back to hours.

use congest::plan::topo_key;
use congest::tree::build_bfs_tree;
use congest::Executor;
use engine::Engine;
use lightgraph::generators;
use lightnet::shallow_light_tree;
use std::time::Instant;

#[test]
#[ignore = "large-n smoke (1M geometric instance); nightly CI runs it with --include-ignored"]
fn geometric_1m_instance_is_pinned() {
    // The `bfs-geo-1m` benchmark input (`scenarios/geometric_1m.toml`,
    // the bench BFS@1M rows). The flat pre-round pipeline — grid-sorted
    // generator, exact-capacity graph build, counting-sort CSR — must
    // reproduce it byte for byte: edge count, total weight and both
    // topology fingerprints (the ordered endpoint list).
    let n = 1_000_000;
    let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let g = generators::random_geometric(n, radius, 1);
    assert_eq!(
        topo_key(&g),
        (n, 3_997_093, 0xaa0a_a4ea_b6cb_47ea, 0xa01b_4e3a_2052_13b5)
    );
    assert_eq!(g.total_weight(), 4_251_268_111);
}

#[test]
#[ignore = "large-n smoke (100k geometric BFS); nightly CI runs it with --include-ignored"]
fn geometric_100k_bfs_scales() {
    let n = 100_000;
    let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();

    let gen_start = Instant::now();
    let g = generators::random_geometric(n, radius, 1);
    let gen_s = gen_start.elapsed().as_secs_f64();
    assert_eq!(g.n(), n);
    assert!(g.is_connected(), "generator must stitch components");
    // Expected degree ≈ 8 → m ≈ 4n; a loose band catches bucketing bugs
    // (missed neighbor cells halve m, double-counting doubles it).
    assert!(
        (3 * n..6 * n).contains(&g.m()),
        "implausible edge count {} for degree-8 radius",
        g.m()
    );
    // The O(n²) generator needed ~10¹⁰ distance checks here (minutes);
    // the grid-bucketed one is comfortably under a minute even on one
    // slow core. Generous bound so CI hardware jitter never flakes.
    assert!(
        gen_s < 60.0,
        "generation took {gen_s:.1}s — complexity regression?"
    );

    let mut eng = Engine::with_threads(&g, 4);
    let (tree, stats) = build_bfs_tree(&mut eng, 0);
    assert_eq!(
        tree.parent.iter().filter(|p| p.is_none()).count(),
        1,
        "BFS tree spans the graph with a single root"
    );
    assert!(tree.height() > 0 && stats.rounds > 0);
    assert!(
        stats.messages > g.m() as u64,
        "BFS floods every edge at least once"
    );
}

#[test]
#[ignore = "large-n smoke (8k geometric SLT); nightly CI runs it with --include-ignored"]
fn geometric_8k_slt_end_to_end() {
    let n = 8_000;
    let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let g = generators::random_geometric(n, radius, 1);
    assert!(g.is_connected(), "generator must stitch components");

    let mut eng = Engine::with_threads(&g, 4);
    let (tau, _) = build_bfs_tree(&mut eng, 0);
    let start = Instant::now();
    let slt = shallow_light_tree(&mut eng, &tau, 0, 0.5, 1);
    let wall = start.elapsed().as_secs_f64();

    assert_eq!(slt.edges.len(), n - 1, "SLT must be a spanning tree");
    assert!(slt.breakpoints > 0);
    let h = g.edge_subgraph_dedup(slt.edges.iter().copied());
    assert!(h.is_connected());
    // The adaptive landmark cutoff is what makes this size tractable:
    // before it, the two SPT phases alone delivered >60M messages at
    // n = 8k. A generous ceiling still catches a relaxation-volume
    // regression of that order.
    let delivered = Executor::total(&eng).messages_delivered();
    assert!(
        delivered < 40_000_000,
        "SLT@8k delivered {delivered} messages — relaxation-volume regression?"
    );
    assert!(wall < 300.0, "SLT@8k took {wall:.0}s — scaling regression?");
}

#[test]
#[ignore = "large-n smoke (64k geometric SLT); nightly CI runs it with --include-ignored"]
fn geometric_64k_slt_end_to_end() {
    let n = 64_000;
    let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let g = generators::random_geometric(n, radius, 1);
    assert!(g.is_connected(), "generator must stitch components");

    let mut eng = Engine::with_threads(&g, 4);
    let (tau, _) = build_bfs_tree(&mut eng, 0);
    let start = Instant::now();
    let slt = shallow_light_tree(&mut eng, &tau, 0, 0.5, 1);
    let wall = start.elapsed().as_secs_f64();

    assert_eq!(slt.edges.len(), n - 1, "SLT must be a spanning tree");
    assert!(slt.breakpoints > 0);
    let h = g.edge_subgraph_dedup(slt.edges.iter().copied());
    assert!(h.is_connected());
    // This size exists because the batched-contraction Euler tour and
    // the pipelined Borůvka merge broke the MST/tour message wall:
    // the old broadcast-everything tour alone would have delivered
    // >10⁹ messages here. The run lands at 11,659,659 delivered (pinned
    // exactly in BENCH_engine.jsonl); a generous ceiling still catches
    // a regression back toward per-fragment broadcasts.
    let delivered = Executor::total(&eng).messages_delivered();
    assert!(
        delivered < 60_000_000,
        "SLT@64k delivered {delivered} messages — MST/tour message-wall regression?"
    );
    assert!(
        wall < 600.0,
        "SLT@64k took {wall:.0}s — scaling regression?"
    );
}
