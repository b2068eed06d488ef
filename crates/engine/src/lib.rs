//! Parallel deterministic CONGEST execution engine.
//!
//! The sequential [`congest::Simulator`] is the semantic reference;
//! this crate provides [`Engine`], a drop-in [`congest::Executor`] that
//! executes the same [`congest::Program`]s over node shards on worker
//! threads, with messages moving through CSR-indexed flat queue arrays
//! ([`csr`]) instead of per-edge hash maps. The engine is
//! **bit-identical** to the simulator — same per-node outputs, same
//! `RunStats` — because per-directed-edge FIFO order and per-node inbox
//! order are preserved exactly (see [`engine`](self) module docs for
//! the argument, and `tests/equivalence.rs` for the property tests).
//!
//! On top of the engine, the [`scenario`] module (exposed by the
//! `scenario` binary in `src/bin/scenario.rs`) sweeps graph family ×
//! size × algorithm from a TOML config and emits JSONL or CSV result
//! rows — the harness for workloads up to million-node geometric
//! instances, far past the n ≤ 1k simulator runs of the `experiments`
//! harness in `crates/bench`. It is also the repository's regression
//! gate: `scenario CONFIG --check BASELINE` compares a sweep's rows
//! with committed ones (the golden fixtures, and `BENCH_engine.jsonl`
//! for `scenarios/bench.toml`). Every algorithm in the repository is
//! reachable from a sweep; see [`scenario::ALGORITHMS`].
//!
//! ```
//! use congest::{Executor, Simulator};
//! use congest::tree::build_bfs_tree;
//! use engine::Engine;
//! use lightgraph::generators;
//!
//! let g = generators::erdos_renyi(128, 0.05, 100, 7);
//! let (tree_seq, stats_seq) = build_bfs_tree(&mut Simulator::new(&g), 0);
//! let (tree_par, stats_par) = build_bfs_tree(&mut Engine::with_threads(&g, 4), 0);
//! assert_eq!(tree_seq.parent, tree_par.parent);
//! assert_eq!(stats_seq, stats_par);
//! ```

pub mod config;
pub mod csr;
pub mod pool;
pub mod scenario;

mod engine;
mod plan;

pub use engine::Engine;
