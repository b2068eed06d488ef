//! Distributed Bellman–Ford: single-source and multi-source, with
//! optional distance and hop bounds and per-source path reporting.
//!
//! These are the workhorses behind the approximate SPTs of §4, the net
//! deactivation of §6, and the ∆-bounded multi-source explorations of
//! §7. Congestion from overlapping sources is charged automatically by
//! the simulator's per-edge queues.
//!
//! Both entry points are thin wrappers over the shared
//! **keyed-relaxation subsystem** ([`congest::relax`]): sources become
//! dense key *indices*, per-node state is a flat slot table instead of
//! a hash map, announcements batch per round, and the lawful clause-7
//! combiner (componentwise minimum over `(distance, hops)` per source)
//! collapses co-queued superseded updates — the multi-source table
//! churn that made SLT sweeps message-bound (see ROADMAP). For
//! unbounded runs the fixed point (and hence the outputs) equals the
//! classic Bellman–Ford one; for hop-bounded runs the merged hop
//! counter is never larger than any absorbed one, so the exploration
//! reaches a (deterministic, engine-identical) superset of what an
//! uncombined run reaches, with distances that are still genuine path
//! lengths.
//!
//! The subsystem also reports **truncation**: whether any accepted
//! improvement arrived with an exhausted hop budget. A run that never
//! truncated is *provably* identical to an unbounded Bellman–Ford —
//! the certificate behind [`crate::landmark`]'s adaptive cutoff.

use congest::obs;
use congest::relax::{max_finite, RelaxProgram, RelaxTable};
use congest::{Executor, RunStats};
use lightgraph::{NodeId, Weight, INF};

const TAG_RELAX: u64 = 20;
const TAG_MRELAX: u64 = 21;

/// Result of a single-source run.
#[derive(Debug, Clone)]
pub struct SsspResult {
    /// Distance estimates (exact within the bounds; [`INF`] beyond).
    pub dist: Vec<Weight>,
    /// Predecessor towards the source along a shortest path.
    pub parent: Vec<Option<NodeId>>,
    /// Whether the hop bound visibly truncated the exploration at any
    /// node. `false` certifies the distances equal the unbounded fixed
    /// point (see [`congest::relax::RelaxTable::truncated`]).
    pub truncated: bool,
    /// Rounds/messages of this computation.
    pub stats: RunStats,
}

impl SsspResult {
    /// Largest finite distance estimate — the weighted eccentricity of
    /// the source when the run was unbounded (0 if nothing was
    /// reached). Headline metric for the `scenario` runner's `bellman`
    /// sweeps. See [`congest::relax::max_finite`] for the edge-case
    /// conventions (shared with [`crate::ApproxSpt::max_finite_dist`]).
    pub fn max_finite_dist(&self) -> Weight {
        max_finite(&self.dist)
    }
}

/// Exact single-source shortest paths by distributed Bellman–Ford.
///
/// Runs until quiescence: the number of rounds is the weighted
/// shortest-path hop depth, which the paper's substitutes avoid — see
/// [`crate::landmark`] for the `Õ(√n + D)`-round version.
pub fn bellman_ford<'g>(sim: &mut impl Executor<'g>, src: NodeId) -> SsspResult {
    bounded_bellman_ford(sim, src, INF, u64::MAX)
}

/// Single-source Bellman–Ford restricted to distance ≤ `bound` and at
/// most `hop_bound` relaxation rounds.
///
/// The hop bound is a *reach floor*, not a ceiling: the shared
/// combiner (module docs) merges co-queued updates to the
/// componentwise `(min distance, min hops)`, so a merged update may
/// carry a smaller hop counter than the path behind its distance and
/// travel further than an uncombined run would — every returned
/// distance is still a genuine path length ≤ `bound`, and everything
/// an uncombined run reaches is reached. (A single-source program
/// stages at most one update per edge per round, so with the default
/// cap the combiner never actually fires here; the caveat is live in
/// [`multi_source_bounded`].)
pub fn bounded_bellman_ford<'g>(
    sim: &mut impl Executor<'g>,
    src: NodeId,
    bound: Weight,
    hop_bound: u64,
) -> SsspResult {
    let (tables, stats) = obs::span(sim, "relax", |sim| {
        sim.run(|v, _| {
            RelaxProgram::new(
                TAG_RELAX,
                1,
                bound,
                hop_bound,
                if v == src { vec![0] } else { Vec::new() },
            )
        })
    });
    let truncated = tables.iter().any(|t| t.truncated);
    let (dist, parent) = tables
        .iter()
        .map(|t| (t.dist(0).unwrap_or(INF), t.parent(0)))
        .unzip();
    SsspResult {
        dist,
        parent,
        truncated,
        stats,
    }
}

/// Result of a multi-source run: dense per-vertex tables keyed by
/// *source index* (the position of the source in the sorted, deduped
/// [`MultiSourceResult::sources`]), straight from the keyed-relaxation
/// subsystem — no per-node hash maps.
#[derive(Debug, Clone)]
pub struct MultiSourceResult {
    /// The sources, sorted ascending and deduplicated: the key space of
    /// every table.
    pub sources: Vec<NodeId>,
    /// `tables[v]` — the dense relaxation table of vertex `v` (empty
    /// when the bounded exploration never reached `v`).
    pub tables: Vec<RelaxTable>,
    /// Whether the hop bound visibly truncated any exploration (see
    /// [`SsspResult::truncated`]).
    pub truncated: bool,
    /// Rounds/messages of this computation.
    pub stats: RunStats,
}

impl MultiSourceResult {
    /// The key index of `src`, if it was a source.
    fn source_index(&self, src: NodeId) -> Option<usize> {
        self.sources.binary_search(&src).ok()
    }

    /// Distance from `src` to `v`, if the exploration reached it.
    pub fn dist(&self, src: NodeId, v: NodeId) -> Option<Weight> {
        self.tables[v].dist(self.source_index(src)?)
    }

    /// Nearest source to `v` with its distance (ties broken towards the
    /// smaller source id, matching the ascending key order).
    pub fn nearest(&self, v: NodeId) -> Option<(NodeId, Weight)> {
        self.tables[v].nearest().map(|(k, d)| (self.sources[k], d))
    }

    /// Iterates the sources that reached `v` in ascending source order,
    /// as `(source, distance, predecessor)`.
    pub fn reached(
        &self,
        v: NodeId,
    ) -> impl Iterator<Item = (NodeId, Weight, Option<NodeId>)> + '_ {
        self.tables[v]
            .iter_reached()
            .map(|(k, d, p)| (self.sources[k], d, p))
    }

    /// Walks predecessors from `v` back to `src`, returning the vertex
    /// path `[src, …, v]`, or `None` if `src` never reached `v`.
    pub fn path_from(&self, src: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        let key = self.source_index(src)?;
        self.tables[v].get(key)?;
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.tables[cur].parent(key) {
            path.push(p);
            cur = p;
        }
        (cur == src).then(|| {
            path.reverse();
            path
        })
    }
}

/// Multi-source distance/hop-bounded Bellman–Ford with per-source
/// predecessor (path) reporting — the \[EN16\] hopset-exploration
/// substitute used by §7 (see DESIGN.md), as one [`RelaxProgram`] run
/// over the sorted source indices.
///
/// All sources explore in parallel; the per-edge bandwidth cap charges
/// the congestion of overlapping explorations honestly.
///
/// Like [`bounded_bellman_ford`], `hop_bound` is a *reach floor*, not
/// a ceiling: the per-source combiner merges co-queued updates
/// componentwise, so the returned tables are a (deterministic,
/// engine-identical) superset of an uncombined run's, with
/// pointwise-≤ distances that are all genuine path lengths ≤ `bound`.
/// With `hop_bound == u64::MAX` the tables are bit-identical to the
/// uncombined fixed point. See the clause-7 audit in DESIGN.md for why
/// the landmark SPT's exactness guarantees survive this.
pub fn multi_source_bounded<'g>(
    sim: &mut impl Executor<'g>,
    sources: &[NodeId],
    bound: Weight,
    hop_bound: u64,
) -> MultiSourceResult {
    let mut sorted: Vec<NodeId> = sources.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let keys = sorted.len();
    let sorted_ref = &sorted;
    let (tables, stats) = obs::span(sim, "relax", |sim| {
        sim.run(|v, _| {
            let seeds = sorted_ref
                .binary_search(&v)
                .ok()
                .map(|k| vec![k as u32])
                .unwrap_or_default();
            RelaxProgram::new(TAG_MRELAX, keys, bound, hop_bound, seeds)
        })
    });
    let truncated = tables.iter().any(|t| t.truncated);
    MultiSourceResult {
        sources: sorted,
        tables,
        truncated,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::Simulator;
    use lightgraph::{dijkstra, generators};

    #[test]
    fn exact_bf_matches_dijkstra() {
        for seed in 0..3 {
            let g = generators::erdos_renyi(40, 0.15, 30, seed);
            let mut sim = Simulator::new(&g);
            let r = bellman_ford(&mut sim, 0);
            let oracle = dijkstra::shortest_paths(&g, 0);
            assert_eq!(r.dist, oracle.dist);
            assert!(!r.truncated, "unbounded runs never truncate");
        }
    }

    #[test]
    fn parents_form_shortest_path_tree() {
        let g = generators::grid(6, 6, 9, 1);
        let mut sim = Simulator::new(&g);
        let r = bellman_ford(&mut sim, 3);
        for v in 0..g.n() {
            if v == 3 {
                assert!(r.parent[v].is_none());
                continue;
            }
            let p = r.parent[v].expect("connected");
            let (w, _) = g.edge_between(v, p).unwrap();
            assert_eq!(r.dist[v], r.dist[p] + w, "tight tree edge at {v}");
        }
    }

    #[test]
    fn distance_bound_truncates() {
        let g = generators::path(6, 10);
        let mut sim = Simulator::new(&g);
        let r = bounded_bellman_ford(&mut sim, 0, 25, u64::MAX);
        assert_eq!(r.dist[0], 0);
        assert_eq!(r.dist[2], 20);
        assert_eq!(r.dist[3], INF);
    }

    #[test]
    fn hop_bound_truncates_and_is_flagged() {
        let g = generators::path(8, 1);
        let mut sim = Simulator::new(&g);
        let r = bounded_bellman_ford(&mut sim, 0, INF, 3);
        assert_eq!(r.dist[3], 3);
        assert_eq!(r.dist[4], INF, "4 hops exceeds the bound");
        assert!(r.truncated, "the bound visibly bit");
        let mut sim = Simulator::new(&g);
        let r = bounded_bellman_ford(&mut sim, 0, INF, 20);
        assert_eq!(r.dist[7], 7);
        assert!(!r.truncated, "slack bound behaves as unbounded");
    }

    #[test]
    fn multi_source_matches_per_source_dijkstra() {
        let g = generators::erdos_renyi(35, 0.2, 20, 4);
        let sources = [0, 7, 19];
        let mut sim = Simulator::new(&g);
        let r = multi_source_bounded(&mut sim, &sources, INF, u64::MAX);
        for &s in &sources {
            let oracle = dijkstra::shortest_paths(&g, s);
            for v in 0..g.n() {
                assert_eq!(r.dist(s, v), Some(oracle.dist[v]), "src {s}, v {v}");
            }
        }
    }

    #[test]
    fn multi_source_bound_limits_tables() {
        let g = generators::path(10, 5);
        let mut sim = Simulator::new(&g);
        let r = multi_source_bounded(&mut sim, &[0, 9], 12, u64::MAX);
        assert_eq!(r.dist(0, 2), Some(10));
        assert_eq!(r.dist(0, 3), None, "15 > bound");
        assert_eq!(
            r.nearest(4),
            None,
            "vertex 4 is beyond the bound from both sources"
        );
        assert_eq!(r.nearest(1), Some((0, 5)));
        assert_eq!(
            r.reached(1).collect::<Vec<_>>(),
            vec![(0, 5, Some(0))],
            "dense tables iterate in ascending source order"
        );
    }

    #[test]
    fn multi_source_paths_are_real_and_shortest() {
        let g = generators::random_geometric(30, 0.4, 2);
        let sources = [1, 5];
        let mut sim = Simulator::new(&g);
        let r = multi_source_bounded(&mut sim, &sources, INF, u64::MAX);
        let oracle = dijkstra::shortest_paths(&g, 1);
        for v in 0..g.n() {
            let path = r.path_from(1, v).expect("connected");
            assert_eq!(*path.first().unwrap(), 1);
            assert_eq!(*path.last().unwrap(), v);
            // consecutive path vertices are adjacent; total = dist
            let mut total = 0;
            for pair in path.windows(2) {
                total += g
                    .edge_between(pair[0], pair[1])
                    .expect("path uses real edges")
                    .0;
            }
            assert_eq!(total, oracle.dist[v]);
        }
    }

    #[test]
    fn duplicate_and_unsorted_sources_are_canonicalized() {
        let g = generators::path(6, 2);
        let mut sim = Simulator::new(&g);
        let r = multi_source_bounded(&mut sim, &[5, 0, 5], INF, u64::MAX);
        assert_eq!(r.sources, vec![0, 5]);
        assert_eq!(r.source_index(5), Some(1));
        assert_eq!(r.dist(5, 3), Some(4));
    }
}
