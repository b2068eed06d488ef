//! The parallel engine as a drop-in executor, plus its congestion
//! instrumentation.
//!
//! ```text
//! cargo run --release --example parallel_engine
//! ```

use congest::tree::build_bfs_tree;
use congest::{Executor, Simulator};
use engine::Engine;
use lightgraph::generators;
use lightnet::shallow_light_tree;

fn main() {
    let n = 20_000;
    let g = generators::gnp_sparse(n, 8.0 / n as f64, 100, 42);
    println!("graph: n={} m={}", g.n(), g.m());

    // Same program, two engines, bit-identical accounting.
    let mut sim = Simulator::new(&g);
    let (tree_seq, stats_seq) = build_bfs_tree(&mut sim, 0);

    let mut eng = Engine::new(&g);
    eng.set_record_node_stats(true);
    let (tree_par, stats_par) = build_bfs_tree(&mut eng, 0);

    assert_eq!(tree_seq.parent, tree_par.parent);
    assert_eq!(stats_seq, stats_par);
    assert_eq!(sim.peaks(), Executor::peaks(&eng));
    println!(
        "bfs: rounds={} messages={} height={} (identical on both engines)",
        stats_par.rounds,
        stats_par.messages,
        tree_par.height()
    );

    let peaks = Executor::peaks(&eng);
    println!(
        "engine instrumentation: threads={} peak-round-messages={} peak-queue-depth={}",
        eng.threads(),
        peaks.round_messages,
        peaks.queue_depth
    );
    let hub = Executor::node_stats(&eng)
        .expect("node stats recorded")
        .summary();
    println!(
        "hub: node {} sent and received {} messages (p99 {})",
        hub.msg_max_node, hub.msg_max, hub.msg_p99
    );

    // Composite paper algorithms run unchanged on the engine.
    let small = generators::erdos_renyi(256, 0.05, 50, 7);
    let mut eng_small = Engine::new(&small);
    let (tau, _) = build_bfs_tree(&mut eng_small, 0);
    let slt = shallow_light_tree(&mut eng_small, &tau, 0, 0.5, 7);
    println!(
        "slt on engine: {} edges, {} breakpoints, {} total rounds",
        slt.edges.len(),
        slt.breakpoints,
        Executor::total(&eng_small).rounds
    );
}
