//! Plan-cache safety properties (the run-session layer).
//!
//! The determinism contract's *plan reuse note* (`congest::exec`)
//! permits caching anything derivable from the input topology alone —
//! shard bounds, claim orders, node owners — because observable
//! behavior is a pure function of `(graph, programs, cap)` plus the
//! stress seed. These tests pin the two ways that promise could break:
//!
//! 1. **Warm ≠ cold.** A warmed executor (memoized plan, reused
//!    arenas, pooled relax tables) must be bit-identical to a cold one:
//!    same outputs, same `RunStats`, same flattened span trees, at
//!    every thread count. The workload is the SLT construction — the
//!    heaviest composite in the repository, spawning sub-executors and
//!    hundreds of sub-runs that all share the root's plan cache.
//!
//! 2. **Stress bypassing the cache.** Randomized shard cuts
//!    (`ENGINE_SHARD_STRESS`, replayed here via the explicit
//!    [`Engine::set_shard_stress_seed`] form of the same code path)
//!    must *key* the plan cache — a distinct seed is a distinct plan,
//!    a revisited seed is a cache hit — never bypass it or, worse,
//!    serve a differently-cut plan. Outputs must not move at all:
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

fn slt_pass<E: Executor>(exec: &mut E, seed: u64) -> PassFingerprint {
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

    /// Cold run, then two warm runs on the same executor: the memoized
    /// plan, reused arenas, and pooled tables must leave no trace in
    /// any deterministic output, and the warm runs must not rebuild
    /// the plan.
    #[test]
    fn prop_warm_run_identical_to_cold((g, seed) in arb_graph()) {
        let mut sim = Simulator::new(&g);
        let reference = slt_pass(&mut sim, seed);
        for threads in [1usize, 2, 4] {
            let mut eng = Engine::with_threads(&g, threads);
            let cold = slt_pass(&mut eng, seed);
            let builds_after_cold = eng.plan_builds();
            let warm = slt_pass(&mut eng, seed);
            let warm2 = slt_pass(&mut eng, seed);
            prop_assert_eq!(&cold, &reference, "cold engine vs simulator (threads={})", threads);
            prop_assert_eq!(&warm, &cold, "warm vs cold (threads={})", threads);
            prop_assert_eq!(&warm2, &cold, "second warm vs cold (threads={})", threads);
            prop_assert_eq!(
                eng.plan_builds(), builds_after_cold,
                "warm passes rebuilt the root plan (threads={})", threads
            );
        }
    }
}

/// Stressed shard cuts key the cache. Runs the workload under a
/// sequence of explicit stress seeds (the replay form of
/// `ENGINE_SHARD_STRESS`; both reach `plan_for` with the same
/// `(threads, stress)` key): every run must produce identical output,
/// distinct seeds must *build* distinct plans, and revisiting a seed —
/// or returning to the unstressed cut — must hit the cache without a
/// rebuild.
#[test]
fn stress_seeds_key_the_plan_cache() {
    let g = generators::erdos_renyi(40, 0.15, 50, 7);
    let mut eng = Engine::with_threads(&g, 3);

    let mut fingerprints: Vec<PassFingerprint> = Vec::new();
    let mut builds: Vec<u64> = Vec::new();
    for stress in [None, Some(0xA11CE), Some(0xB0B), Some(0xA11CE), None] {
        eng.set_shard_stress_seed(stress);
        fingerprints.push(slt_pass(&mut eng, 7));
        builds.push(eng.plan_builds());
    }

    for (i, fp) in fingerprints.iter().enumerate() {
        assert_eq!(
            fp, &fingerprints[0],
            "stressed cut changed observable output (pass {i})"
        );
    }
    // Three distinct keys (None, A11CE, B0B) build; revisits must not.
    assert!(
        builds[1] > builds[0],
        "first stressed cut must build a new plan"
    );
    assert!(builds[2] > builds[1], "second stress seed is a new key");
    assert_eq!(builds[3], builds[2], "revisited stress seed must hit");
    assert_eq!(builds[4], builds[3], "unstressed revisit must hit");
}
