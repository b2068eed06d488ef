//! Token sweeps along the Euler tour.
//!
//! Both §4 (break-point selection inside the `√n`-sized intervals) and
//! §5 Case 2 (cluster-interval coordination) run sequential scans along
//! consecutive Euler-tour positions, *in parallel in every interval*.
//! Consecutive tour positions are hosted on tree-adjacent vertices, so
//! tokens travel on real graph edges; each directed tree edge carries
//! exactly one interval's stream, so the bandwidth cap is respected.

use congest::{Ctx, Executor, Message, Program, RunStats, Word};
use dist_mst::euler::DistEulerTour;
use lightgraph::NodeId;
use std::collections::HashMap;

const TAG_TOKEN: u64 = 50;

/// A two-word token carried through the sweep.
pub type Token = [Word; 2];

/// Sweep direction along the tour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Tokens start at interval heads and flow towards larger
    /// positions, stopping before the next head.
    LeftToRight,
    /// Tokens start at interval tails (the position before the next
    /// head) and flow towards smaller positions, stopping *at* the
    /// interval head (which receives but does not forward).
    RightToLeft,
}

/// Routing table for sweeps: owner of every tour position. Each vertex
/// can derive its own successors locally from its child structure and
/// appearance list; we assemble the global table once on their behalf.
#[derive(Debug, Clone)]
pub struct TourRouting {
    /// `owner[j]` = vertex hosting tour position `j`.
    pub owner: Vec<NodeId>,
    /// Positions owned by each vertex, ascending.
    pub positions: Vec<Vec<usize>>,
}

impl TourRouting {
    /// Builds the routing table from a distributed Euler tour.
    pub fn new(tour: &DistEulerTour) -> Self {
        let (seq, _) = tour.assemble();
        let mut positions = vec![Vec::new(); tour.appearances.len()];
        for (j, &v) in seq.iter().enumerate() {
            positions[v].push(j);
        }
        TourRouting {
            owner: seq,
            positions,
        }
    }

    /// Number of tour positions (`2n − 1`).
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Whether the tour is empty.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }
}

struct SweepProgram<F> {
    /// For each owned position that forwards: the successor position
    /// and its owner.
    next: HashMap<usize, Option<(usize, NodeId)>>,
    /// Tokens to emit at init (at sweep origins owned here).
    initial: Vec<(usize, Token)>,
    step: F,
    received: Vec<(usize, Token)>,
}

impl<F> SweepProgram<F> {
    fn emit(&mut self, ctx: &mut Ctx<'_>, pos: usize, token: Token) {
        if let Some(Some((next_pos, owner))) = self.next.get(&pos) {
            ctx.send(
                *owner,
                Message::words(&[TAG_TOKEN, *next_pos as u64, token[0], token[1]]),
            );
        }
    }
}

impl<F: FnMut(usize, Token) -> Token> Program for SweepProgram<F> {
    type Output = Vec<(usize, Token)>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        for (pos, token) in self.initial.clone() {
            self.emit(ctx, pos, token);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (_, msg) in inbox {
            debug_assert_eq!(msg.word(0), TAG_TOKEN);
            let pos = msg.word(1) as usize;
            let incoming = [msg.word(2), msg.word(3)];
            self.received.push((pos, incoming));
            let outgoing = (self.step)(pos, incoming);
            self.emit(ctx, pos, outgoing);
        }
    }

    fn finish(self) -> Self::Output {
        self.received
    }
}

/// Token sweep over tour intervals delimited by `is_start` positions.
///
/// * [`Direction::LeftToRight`]: every head `j` (with `is_start(j)`)
///   emits `init(j)`; positions `j+1, j+2, …` up to the next head each
///   receive the token, record it, and forward `step(position, token)`.
/// * [`Direction::RightToLeft`]: every interval's last position emits
///   `init`, flowing down to the head (inclusive).
///
/// All intervals run in parallel; rounds ≈ max interval length.
/// Returns per-vertex `(position, incoming token)` observations.
pub fn tour_sweep<'g, F>(
    sim: &mut impl Executor<'g>,
    routing: &TourRouting,
    direction: Direction,
    is_start: impl Fn(usize) -> bool,
    init: impl Fn(usize) -> Token,
    mut make_step: impl FnMut(NodeId) -> F,
) -> (Vec<Vec<(usize, Token)>>, RunStats)
where
    F: FnMut(usize, Token) -> Token + Send,
{
    let len = routing.len();
    if len == 0 {
        return (
            vec![Vec::new(); routing.positions.len()],
            RunStats::default(),
        );
    }
    let last = len - 1;
    // origin(p): does position p emit at init?
    // successor(p): Some(next position) if p forwards its token.
    let origin = |p: usize| -> bool {
        match direction {
            Direction::LeftToRight => is_start(p),
            // tail of an interval: the next position is a head (or end)
            Direction::RightToLeft => !is_start(p) && (p == last || is_start(p + 1)),
        }
    };
    let successor = |p: usize| -> Option<usize> {
        match direction {
            Direction::LeftToRight => (p < last && !is_start(p + 1)).then(|| p + 1),
            Direction::RightToLeft => {
                // forward towards smaller positions; heads stop.
                (!is_start(p) && p > 0).then(|| p - 1)
            }
        }
    };

    sim.run(|v, _| {
        let mut next = HashMap::new();
        let mut initial = Vec::new();
        for &p in &routing.positions[v] {
            next.insert(p, successor(p).map(|q| (q, routing.owner[q])));
            if origin(p) {
                initial.push((p, init(p)));
            }
        }
        SweepProgram {
            next,
            initial,
            step: make_step(v),
            received: Vec::new(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::tree::build_bfs_tree;
    use congest::Simulator;
    use dist_mst::{boruvka::distributed_mst, euler::distributed_euler_tour};
    use lightgraph::generators;

    fn routing_for(g: &lightgraph::Graph) -> TourRouting {
        let mut sim = Simulator::new(g);
        let (tau, _) = build_bfs_tree(&mut sim, 0);
        let mst = distributed_mst(&mut sim, &tau, 1);
        let tour = distributed_euler_tour(&mut sim, &tau, &mst, 0);
        TourRouting::new(&tour)
    }

    #[test]
    fn left_to_right_visits_every_interval_position_once() {
        let g = generators::erdos_renyi(30, 0.15, 20, 3);
        let routing = routing_for(&g);
        let len = routing.len();
        let alpha = 7usize;
        let mut sim = Simulator::new(&g);
        // token counts hops from the interval head
        let (out, stats) = tour_sweep(
            &mut sim,
            &routing,
            Direction::LeftToRight,
            |p| p % alpha == 0,
            |_| [0, 0],
            |_| |_pos: usize, t: Token| [t[0] + 1, 0],
        );
        // every non-head position receives exactly once, with hop count
        // = offset - 1 ... token at position p is the value forwarded by
        // p-1: head sends [0,0]; p = head+1 receives [0,0]; step adds 1.
        let mut seen = vec![0usize; len];
        for (v, recs) in out.iter().enumerate() {
            for &(p, t) in recs {
                assert_eq!(routing.owner[p], v);
                seen[p] += 1;
                assert_eq!(t[0] as usize, (p % alpha) - 1, "position {p}");
            }
        }
        for p in 0..len {
            let expect = usize::from(p % alpha != 0);
            assert_eq!(seen[p], expect, "position {p}");
        }
        assert!(stats.rounds <= alpha as u64 + 2);
    }

    #[test]
    fn right_to_left_reaches_interval_heads() {
        let g = generators::path(16, 2);
        let routing = routing_for(&g);
        let len = routing.len();
        let alpha = 5usize;
        let mut sim = Simulator::new(&g);
        let (out, _) = tour_sweep(
            &mut sim,
            &routing,
            Direction::RightToLeft,
            |p| p % alpha == 0,
            |p| [p as u64, 0],
            |_| |_pos: usize, t: Token| t,
        );
        // each head receives the tail position of its interval
        let mut got: HashMap<usize, u64> = HashMap::new();
        for recs in &out {
            for &(p, t) in recs {
                if p % alpha == 0 {
                    got.insert(p, t[0]);
                }
            }
        }
        for head in (0..len).step_by(alpha) {
            let tail = (head + alpha - 1).min(len - 1);
            if tail == head {
                continue; // single-position interval: no token
            }
            assert_eq!(got.get(&head).copied(), Some(tail as u64), "head {head}");
        }
    }

    #[test]
    fn sweep_charges_interval_length_rounds() {
        let g = generators::path(64, 1);
        let routing = routing_for(&g);
        let mut sim = Simulator::new(&g);
        let (_, stats) = tour_sweep(
            &mut sim,
            &routing,
            Direction::LeftToRight,
            |p| p == 0,
            |_| [0, 0],
            |_| |_p: usize, t: Token| t,
        );
        // one interval spanning the whole tour: 2n-2 sequential hops
        assert!(stats.rounds >= (2 * 64 - 3) as u64);
    }
}
