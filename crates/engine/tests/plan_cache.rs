//! Plan-reuse safety properties (the run lifecycle).
//!
//! The determinism contract's *plan reuse note* (`congest::exec`) lets
//! an executor build its topology-derived structure — routing maps,
//! CSR index, the engine's unstressed shard plan — once, in its
//! constructor, and reuse it for every run, because observable
//! behavior is a pure function of `(graph, programs, cap)` plus the
//! stress seed. These tests pin the two ways that promise could break:
//!
//! 1. **Warm ≠ cold.** A warmed executor (reused plan and arenas) must
//!    be bit-identical to a cold one: same outputs, same `RunStats`,
//!    same flattened span trees, at every thread count. The workload is
//!    the SLT construction — the heaviest composite in the repository,
//!    spawning sub-executors and hundreds of sub-runs.
//!
//! 2. **Stress leaking into the reused plan.** Randomized shard cuts
//!    (`ENGINE_SHARD_STRESS`, replayed here via the explicit
//!    [`Engine::set_shard_stress_seed`] form of the same code path) are
//!    cut per run and dropped; switching seeds, revisiting one, or
//!    returning to the unstressed plan must not move any output:
//!    clauses 3–5 are schedule-independent, which makes shard geometry
//!    semantically invisible.

use congest::tree::build_bfs_tree;
use congest::{obs, Executor, RunStats, Simulator};
use engine::Engine;
use lightgraph::{generators, EdgeId, Graph};
use lightnet::shallow_light_tree;
use proptest::prelude::*;

/// Random connected instances, same families as `equivalence.rs`.
fn arb_graph() -> impl Strategy<Value = (Graph, u64)> {
    (8usize..40, 0u64..1_000, 0u64..3).prop_map(|(n, seed, kind)| {
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

/// Everything observable from one full SLT pass: result fields, the
/// pass's cumulative `RunStats` delta, and the flattened span tree
/// with every deterministic column (stats, invocations, sched_rounds —
/// wall columns excluded by construction).
#[derive(Debug, PartialEq, Eq)]
struct PassFingerprint {
    edges: Vec<EdgeId>,
    breakpoints: usize,
    stats: RunStats,
    total_delta: RunStats,
    spans: Vec<(String, RunStats, u64, u64)>,
}

fn slt_pass<'g, E: Executor<'g>>(exec: &mut E, seed: u64) -> PassFingerprint {
    let before = Executor::total(exec);
    let (res, tree) = obs::collect_spans(|| {
        let (tau, _) = build_bfs_tree(exec, 0);
        shallow_light_tree(exec, &tau, 0, 0.5, seed)
    });
    PassFingerprint {
        edges: res.edges,
        breakpoints: res.breakpoints,
        stats: res.stats,
        total_delta: Executor::total(exec).since(before),
        spans: tree
            .flatten()
            .into_iter()
            .map(|(path, node)| (path, node.stats, node.invocations, node.sched_rounds))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cold run, then two warm runs on the same executor: the reused
    /// plan and arenas must leave no trace in any deterministic
    /// output.
    #[test]
    fn prop_warm_run_identical_to_cold((g, seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let reference = slt_pass(&mut sim, seed);
        for threads in [1usize, 2, 4] {
            let mut eng = Engine::with_threads(&g, threads);
            let cold = slt_pass(&mut eng, seed);
            let warm = slt_pass(&mut eng, seed);
            let warm2 = slt_pass(&mut eng, seed);
            prop_assert_eq!(&cold, &reference, "cold engine vs simulator (threads={})", threads);
            prop_assert_eq!(&warm, &cold, "warm vs cold (threads={})", threads);
            prop_assert_eq!(&warm2, &cold, "second warm vs cold (threads={})", threads);
        }
    }
}

/// Stressed shard cuts leave no trace. Runs the workload under a
/// sequence of explicit stress seeds (the replay form of
/// `ENGINE_SHARD_STRESS`; both reach the same per-run plan cut): every
/// run — a new seed, a revisited one, and the return to the unstressed
/// plan built in the constructor — must produce identical output.
#[test]
fn stress_seeds_key_the_plan_cache() {
    let g = generators::erdos_renyi(40, 0.15, 50, 7);
    let mut eng = Engine::with_threads(&g, 3);

    let mut fingerprints: Vec<PassFingerprint> = Vec::new();
    for stress in [None, Some(0xA11CE), Some(0xB0B), Some(0xA11CE), None] {
        eng.set_shard_stress_seed(stress);
        fingerprints.push(slt_pass(&mut eng, 7));
    }

    for (i, fp) in fingerprints.iter().enumerate() {
        assert_eq!(
            fp, &fingerprints[0],
            "stressed cut changed observable output (pass {i})"
        );
    }
}
