//! A synchronous CONGEST-model simulator.
//!
//! The CONGEST model (§2 of *Distributed Construction of Light Networks*)
//! has one processor per vertex of a weighted graph `G`; computation
//! proceeds in synchronous rounds, and in each round every vertex may send
//! one message of `O(log n)` bits over each incident edge. Local
//! computation is free; the complexity measure is the number of rounds.
//!
//! This simulator realizes the model faithfully and *charges congestion
//! automatically*: every directed edge carries a FIFO queue, and at most
//! [`Executor::cap`] messages per round cross each directed edge. A
//! program that enqueues `K` messages on one edge therefore pays
//! `⌈K/cap⌉` rounds — exactly the pipelining arguments the paper uses
//! (e.g. Lemma 1).
//!
//! * [`Program`] / [`Ctx`] — the engine-agnostic per-node state machine
//!   interface ([`program`]),
//! * [`Executor`] — the contract any execution engine must honor
//!   ([`exec`]), with the bookkeeping core [`exec::ExecCore`] every
//!   engine embeds; implemented here by the sequential [`Simulator`]
//!   and in `crates/engine` by the parallel sharded engine,
//! * [`Simulator`] — the sequential reference engine: per-run round loop
//!   and cumulative round accounting across the phases of a composite
//!   algorithm,
//! * [`tree`] — distributed BFS-tree construction (the tree τ of §2),
//! * [`collective`] — Lemma-1 collectives: pipelined broadcast to all
//!   vertices in `O(M + D)` rounds, one eager keyed convergecast whose
//!   semilattice merge also combines items in flight, a fixed-width sum
//!   (one message per tree edge), and a targeted downcast,
//! * [`slab`] — the shared arena-slab queue storage behind every
//!   per-edge FIFO and the opt-in clause-7 message combiner
//!   ([`Program::combine_key`]): pooled slots recycled across rounds
//!   and runs (zero allocations per message in steady state), with a
//!   `(directed edge, key) → slot` hash map so relaxation-style programs
//!   collapse co-queued superseded updates at the cost of one hash per
//!   keyed staging,
//! * [`relax`] — the keyed-relaxation subsystem: canonical wire codec,
//!   the lawful componentwise-min combiner, dense per-key distance
//!   tables, and the ready-made [`relax::RelaxProgram`] every
//!   Bellman–Ford-style program in the workspace is built on,
//! * [`obs`] — observability: phase spans ([`obs::span`]), per-node
//!   message histograms ([`NodeStats`]), and the JSONL profiling
//!   [`TraceSink`] — all observer-neutral (contract clause 8): attached
//!   or detached, deterministic outputs and statistics are
//!   bit-identical — plus the congestion [`Peaks`] every executor
//!   books, the process-wide wall accumulators and the topology
//!   fingerprint (re-exported as [`plan`]).
//!
//! # Example: flooding a token
//!
//! ```
//! use congest::{Simulator, Program, Ctx, Message};
//! use lightgraph::generators;
//!
//! struct Flood { have: bool }
//! impl Program for Flood {
//!     type Output = bool;
//!     fn init(&mut self, ctx: &mut Ctx<'_>) {
//!         if ctx.node() == 0 {
//!             self.have = true;
//!             ctx.send_all(Message::words(&[7]));
//!         }
//!     }
//!     fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(usize, Message)]) {
//!         if !self.have && !inbox.is_empty() {
//!             self.have = true;
//!             ctx.send_all(Message::words(&[7]));
//!         }
//!     }
//!     fn finish(self) -> bool { self.have }
//! }
//!
//! let g = generators::erdos_renyi(32, 0.2, 10, 1);
//! let mut sim = Simulator::new(&g);
//! let (out, stats) = sim.run(|_, _| Flood { have: false });
//! assert!(out.iter().all(|&b| b));
//! assert!(stats.rounds >= 1);
//! ```

pub mod collective;
pub mod exec;
pub mod obs;
pub mod plan;
pub mod program;
pub mod relax;
pub mod slab;
pub mod tree;

mod message;
mod sim;

pub use exec::{for_each_active, Executor};
pub use message::{pack2, unpack2, Message, Word, WORDS_PER_MESSAGE};
pub use obs::{NodeStats, NodeSummary, Peaks, SharedTraceSink, SpanTree, TraceSink};
pub use program::{Ctx, FrontierStats, Program, RunStats};
pub use sim::Simulator;
