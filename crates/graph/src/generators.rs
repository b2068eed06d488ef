//! Seeded random instance generators.
//!
//! Every generator is deterministic in its seed, always returns a
//! *connected* graph (the algorithms in the paper assume connectivity),
//! and uses integer weights in `[1, max_w]` (§2: minimum weight 1,
//! maximum poly(n)).
//!
//! On `n` vertices, keep `max_w` (or a constant weight `w`) at most
//! `INF / n`. [`Graph`] rejects a heavier edge with
//! [`GraphError::WeightTooLarge`](crate::GraphError::WeightTooLarge),
//! because a simple path could then reach [`INF`](crate::INF). A
//! generator that draws such a weight panics at construction, and the
//! message names the weight.

use crate::union_find::UnionFind;
use crate::{Graph, NodeId, Weight};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::ops::Range;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A uniformly random spanning tree skeleton (random attachment order),
/// guaranteeing connectivity of graphs built on top of it.
fn random_tree_edges(n: usize, max_w: Weight, rng: &mut StdRng) -> Vec<(NodeId, NodeId, Weight)> {
    let mut perm: Vec<NodeId> = (0..n).collect();
    perm.shuffle(rng);
    (1..n)
        .map(|i| {
            let parent = perm[rng.gen_range(0..i)];
            (perm[i], parent, rng.gen_range(1..=max_w))
        })
        .collect()
}

/// Connected Erdős–Rényi graph: a random spanning tree plus each other
/// pair independently with probability `p`, weights uniform in
/// `[1, max_w]`.
pub fn erdos_renyi(n: usize, p: f64, max_w: Weight, seed: u64) -> Graph {
    assert!(n >= 1);
    assert!(max_w >= 1);
    let mut r = rng(seed);
    let mut g = Graph::new(n);
    let mut present = std::collections::HashSet::new();
    for (u, v, w) in random_tree_edges(n, max_w, &mut r) {
        present.insert((u.min(v), u.max(v)));
        g.add_edge(u, v, w).expect("tree edge valid");
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if !present.contains(&(u, v)) && r.gen_bool(p) {
                g.add_edge(u, v, r.gen_range(1..=max_w))
                    .expect("valid edge");
            }
        }
    }
    g
}

/// Connected sparse Erdős–Rényi graph in `O(n + m)` expected time:
/// a random spanning tree plus geometric-skip sampling over the
/// non-tree pairs (the classic fast-G(n,p) trick — instead of testing
/// every pair, jump `⌊ln u / ln(1−p)⌋` pairs ahead per accepted edge).
///
/// Produces the same *distribution family* as [`erdos_renyi`] but a
/// different per-seed stream, so use it where scale matters (the
/// `scenario` runner's 10⁵⁺-node sweeps) and [`erdos_renyi`] where
/// seeds are pinned in tests. Skipped pairs that collide with a tree
/// edge are dropped, matching [`erdos_renyi`]'s dedup behavior.
pub fn gnp_sparse(n: usize, p: f64, max_w: Weight, seed: u64) -> Graph {
    assert!(n >= 1);
    assert!(max_w >= 1);
    assert!((0.0..=1.0).contains(&p), "probability p must be in [0, 1]");
    let mut r = rng(seed);
    let mut g = Graph::new(n);
    let mut present = std::collections::HashSet::new();
    for (u, v, w) in random_tree_edges(n, max_w, &mut r) {
        present.insert((u.min(v), u.max(v)));
        g.add_edge(u, v, w).expect("tree edge valid");
    }
    if p <= 0.0 || n < 2 {
        return g;
    }
    // Walk pairs (u, v), u < v, lexicographically with an incremental
    // cursor; geometric skips keep the whole sweep O(n + m) amortized.
    let ln_q = (1.0 - p).ln();
    let mut u = 0usize;
    let mut v = 1usize;
    'sweep: loop {
        let mut skip = if ln_q == f64::NEG_INFINITY {
            0 // p == 1: take every pair
        } else {
            let x: f64 = r.gen_range(f64::EPSILON..1.0);
            (x.ln() / ln_q).floor() as usize
        };
        // advance the cursor `skip` pairs
        loop {
            let remaining_in_row = n - v;
            if skip < remaining_in_row {
                v += skip;
                break;
            }
            skip -= remaining_in_row;
            u += 1;
            if u >= n - 1 {
                break 'sweep;
            }
            v = u + 1;
        }
        if present.insert((u, v)) {
            g.add_edge(u, v, r.gen_range(1..=max_w))
                .expect("valid edge");
        }
        // step to the next pair
        v += 1;
        if v >= n {
            u += 1;
            if u >= n - 1 {
                break;
            }
            v = u + 1;
        }
    }
    g
}

/// Random tree plus `chords` extra random edges; the canonical
/// "spanner-hostile" family (the MST is light, chords are heavy).
pub fn tree_plus_chords(n: usize, chords: usize, max_w: Weight, seed: u64) -> Graph {
    assert!(n >= 1);
    let mut r = rng(seed);
    let mut g = Graph::new(n);
    let mut present = std::collections::HashSet::new();
    for (u, v, w) in random_tree_edges(n, max_w, &mut r) {
        present.insert((u.min(v), u.max(v)));
        g.add_edge(u, v, w).expect("tree edge valid");
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < chords && attempts < 100 * chords.max(1) && n >= 2 {
        attempts += 1;
        let u = r.gen_range(0..n);
        let v = r.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if present.insert(key) {
            g.add_edge(u, v, r.gen_range(1..=max_w))
                .expect("valid edge");
            added += 1;
        }
    }
    g
}

/// Scale applied to unit-square coordinates so that geometric weights are
/// integral.
pub const GEO_SCALE: f64 = 1_000_000.0;

/// Random geometric graph on the unit square (doubling dimension ≈ 2):
/// `n` uniform points, an edge between every pair within Euclidean
/// distance `radius`, weight = scaled Euclidean distance. If the radius
/// graph is disconnected, a Euclidean MST over the points is added, so
/// the result is always connected and still metric.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(n >= 1);
    let mut r = rng(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (r.gen::<f64>(), r.gen::<f64>())).collect();
    graph_from_points(&pts, radius)
}

/// Euclidean distance between two points.
fn geo_dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Scaled integral weight of a geometric edge.
fn geo_weight(d: f64) -> Weight {
    ((d * GEO_SCALE).round() as u64).max(1)
}

/// The canonical stitch-edge comparison order `(d, u, v)`: a *strict*
/// total order on candidate edges (no two edges share `(u, v)`), so the
/// component-stitching MST is unique and every correct MST algorithm —
/// the reference's Kruskal and the grid version's Borůvka — returns the
/// same edge set, ties (e.g. coincident points) included.
fn stitch_cmp(a: &(f64, NodeId, NodeId), b: &(f64, NodeId, NodeId)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// A point set sorted into a square grid of `cell`-sized cells: one
/// flat array of point ids ordered by `(cell key, id)`, so every
/// occupied cell is a contiguous, ascending range of it.
struct Grid {
    cell: f64,
    /// Point ids sorted by `(cell key, id)`.
    ids: Vec<NodeId>,
    /// Occupied cells in key order, each with its `ids` range.
    occupied: Vec<((i64, i64), Range<usize>)>,
    /// The same ranges by cell key: one entry per occupied cell.
    ranges: HashMap<(i64, i64), Range<usize>>,
}

impl Grid {
    fn new(pts: &[(f64, f64)], cell: f64) -> Grid {
        let mut keyed: Vec<((i64, i64), NodeId)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (cell_key(p, cell), i))
            .collect();
        keyed.sort_unstable();
        let mut occupied = Vec::new();
        let mut start = 0;
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            occupied.push((run[0].0, start..start + run.len()));
            start += run.len();
        }
        Grid {
            cell,
            ids: keyed.into_iter().map(|(_, i)| i).collect(),
            ranges: occupied.iter().cloned().collect(),
            occupied,
        }
    }

    /// The `ids` positions of cell `key` (empty for an unoccupied cell).
    fn range(&self, key: (i64, i64)) -> Range<usize> {
        self.ranges.get(&key).cloned().unwrap_or(0..0)
    }

    /// The ids in cell `key`, ascending.
    fn members(&self, key: (i64, i64)) -> &[NodeId] {
        &self.ids[self.range(key)]
    }
}

/// The grid cell of point `p`. `as i64` saturates on overflow/NaN,
/// which preserves adjacency: two points within `cell` of each other
/// always land in the same or neighboring (possibly both-saturated)
/// cells.
fn cell_key(p: (f64, f64), cell: f64) -> (i64, i64) {
    ((p.0 / cell).floor() as i64, (p.1 / cell).floor() as i64)
}

/// The cells of the 3×3 neighborhood of `key` that sort after it.
/// Saturated keys can alias several offsets to one cell (or to `key`
/// itself), so the set is deduplicated: every unordered pair of
/// neighboring cells is then visited exactly once, from its smaller
/// key.
fn later_neighbors(key: (i64, i64)) -> impl Iterator<Item = (i64, i64)> {
    let mut keys = [key; 9];
    for (i, k) in (0i64..).zip(keys.iter_mut()) {
        *k = (
            key.0.saturating_add(i / 3 - 1),
            key.1.saturating_add(i % 3 - 1),
        );
    }
    keys.sort_unstable();
    let mut last = key;
    keys.into_iter().filter(move |&k| {
        let later = k > last;
        if later {
            last = k;
        }
        later
    })
}

/// A positive, finite grid cell size for the radius pass. Degenerate
/// radii (`<= 0`, infinite, NaN) only have to keep coincident points in
/// a shared cell (radius 0) or nothing at all, so any sane constant
/// works; the per-pair `d <= radius` test does the real filtering.
fn radius_cell(pts: &[(f64, f64)], radius: f64) -> f64 {
    if radius > 0.0 && radius.is_finite() {
        radius
    } else if radius == f64::INFINITY {
        // complete graph: one cell must hold every point
        point_span(pts).max(1.0) * 2.0
    } else {
        1.0
    }
}

/// Side length of the points' bounding square (0 if fewer than 2 points).
fn point_span(pts: &[(f64, f64)]) -> f64 {
    let mut min = (f64::INFINITY, f64::INFINITY);
    let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &(x, y) in pts {
        min = (min.0.min(x), min.1.min(y));
        max = (max.0.max(x), max.1.max(y));
    }
    if pts.is_empty() {
        0.0
    } else {
        (max.0 - min.0).max(max.1 - min.1)
    }
}

/// Builds the geometric graph for an explicit point set in
/// `O(n log n + m)` expected time via grid bucketing: the point ids are
/// sorted once into `radius`-sized cells (`Grid`) and each occupied
/// cell is scanned against its 3×3 neighborhood, so the all-pairs loop
/// of [`graph_from_points_reference`] is never materialized. The radius
/// edges come out cell by cell and are counting-sorted by their lower
/// endpoint. Disconnected radius graphs are stitched by a cell-aware
/// Borůvka nearest-neighbor pass instead of the reference's `O(n²)`
/// Kruskal.
///
/// The output is *identical* to [`graph_from_points_reference`] —
/// same edge list, same insertion order, same weights — which the
/// property tests in `tests/geometric_equivalence.rs` lock down:
///
/// 1. every pair within Euclidean distance `radius` becomes an edge,
///    inserted in `(u, v)` lexicographic order, weight = scaled
///    distance ([`GEO_SCALE`], minimum 1);
/// 2. if the radius graph is disconnected, the unique MST of the
///    component contraction under the strict `(d, u, v)` order is
///    appended, also in `(u, v)` lexicographic order — the graph is
///    always connected and still metric.
pub fn graph_from_points(pts: &[(f64, f64)], radius: f64) -> Graph {
    let n = pts.len();
    if n == 0 {
        return Graph::new(0);
    }
    let grid = Grid::new(pts, radius_cell(pts, radius));
    // The scan walks grid positions (indices into `grid.ids`), where
    // neighboring cells lie close together: the points are copied into
    // that order, and the union–find runs over positions too.
    let xy: Vec<(f64, f64)> = grid.ids.iter().map(|&i| pts[i]).collect();
    let mut uf = UnionFind::new(n);
    let mut pairs: Vec<(NodeId, NodeId, Weight)> = Vec::new();
    let mut test = |a: usize, b: usize| {
        let (u, v) = (grid.ids[a], grid.ids[b]);
        let (u, v, pu, pv) = if u < v {
            (u, v, xy[a], xy[b])
        } else {
            (v, u, xy[b], xy[a])
        };
        let d = geo_dist(pu, pv);
        if d <= radius {
            pairs.push((u, v, geo_weight(d)));
            uf.union(a, b);
        }
    };
    for (key, here) in &grid.occupied {
        for a in here.clone() {
            for b in a + 1..here.end {
                test(a, b);
            }
        }
        for later in later_neighbors(*key) {
            for b in grid.range(later) {
                for a in here.clone() {
                    test(a, b);
                }
            }
        }
    }

    // Counting sort by the lower endpoint, then each endpoint's short
    // run by the upper one: `(u, v)` lexicographic order.
    let mut start = vec![0usize; n + 1];
    for &(u, _, _) in &pairs {
        start[u + 1] += 1;
    }
    for u in 0..n {
        start[u + 1] += start[u];
    }
    let mut next = start.clone();
    let mut edges = vec![(0, 0, 0); pairs.len()];
    for (u, v, w) in pairs {
        edges[next[u]] = (u, v, w);
        next[u] += 1;
    }
    for u in 0..n {
        edges[start[u]..start[u + 1]].sort_unstable_by_key(|&(_, v, _)| v);
    }
    edges.extend(
        grid_stitch(pts, radius, &grid, &mut uf)
            .into_iter()
            .map(|(u, v, d)| (u, v, geo_weight(d))),
    );
    Graph::from_edges(n, edges).expect("valid edges")
}

/// The retained `O(n²)` all-pairs reference for [`graph_from_points`]:
/// same canonical output (see there), built the obvious slow way — an
/// all-pairs radius loop plus Kruskal over all cross-component pairs
/// under the `(d, u, v)` order. Kept as the oracle for the
/// grid-bucketing equivalence property tests and for small explicit
/// point sets where clarity beats speed.
pub fn graph_from_points_reference(pts: &[(f64, f64)], radius: f64) -> Graph {
    let n = pts.len();
    let mut g = Graph::new(n);
    let mut uf = UnionFind::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let d = geo_dist(pts[u], pts[v]);
            if d <= radius {
                g.add_edge(u, v, geo_weight(d)).expect("valid edge");
                uf.union(u, v);
            }
        }
    }
    if uf.components() > 1 {
        let mut pairs: Vec<(f64, NodeId, NodeId)> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if !uf.connected(u, v) {
                    pairs.push((geo_dist(pts[u], pts[v]), u, v));
                }
            }
        }
        pairs.sort_by(stitch_cmp);
        let mut bridges: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for (d, u, v) in pairs {
            if uf.union(u, v) {
                bridges.push((u, v, d));
            }
        }
        bridges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        for (u, v, d) in bridges {
            g.add_edge(u, v, geo_weight(d)).expect("valid edge");
        }
    }
    g
}

/// Calls `f` on each cell of the Chebyshev ring at distance `k` around
/// `(cx, cy)`.
fn for_each_ring_cell(cx: i64, cy: i64, k: i64, mut f: impl FnMut((i64, i64))) {
    if k == 0 {
        return f((cx, cy));
    }
    for x in (cx - k)..=(cx + k) {
        f((x, cy - k));
        f((x, cy + k));
    }
    for y in (cy - k + 1)..=(cy + k - 1) {
        f((cx - k, y));
        f((cx + k, y));
    }
}

/// Cell-aware Borůvka stitching: computes the unique MST of the
/// component contraction (inter-component edge order `(d, u, v)`, see
/// [`graph_from_points`]) without touching all `O(n²)` pairs. Each
/// round, every component except the largest finds its minimum outgoing
/// edge by expanding-ring nearest-foreign-neighbor searches over a
/// density-adapted grid — the radius pass's `grid` whenever the cell
/// sizes agree; by the cut property under a strict total order every
/// selected edge belongs to the unique contraction MST, and the
/// component count at least halves per round. `uf` holds the radius
/// graph's components over `grid` positions; each round flattens it
/// into per-vertex `root` and per-root `size` arrays. Returns the
/// stitch edges as `(u, v, d)` with `u < v`, sorted by `(u, v)` — the
/// canonical insertion order.
fn grid_stitch(
    pts: &[(f64, f64)],
    radius: f64,
    grid: &Grid,
    uf: &mut UnionFind,
) -> Vec<(NodeId, NodeId, f64)> {
    let n = pts.len();
    if uf.components() <= 1 {
        return Vec::new();
    }
    let mut pos = vec![0; n];
    for (p, &id) in grid.ids.iter().enumerate() {
        pos[id] = p;
    }
    // Foreign neighbors are always farther than `radius` apart (closer
    // pairs share a component), so the stitch grid can be coarser than
    // the radius grid: aim for O(1) points per cell.
    let mut s = point_span(pts) / (n as f64).sqrt();
    if radius.is_finite() && radius > s {
        s = radius;
    }
    if s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !s.is_finite() {
        s = 1.0;
    }
    let coarse;
    let grid = if s == grid.cell {
        grid
    } else {
        coarse = Grid::new(pts, s);
        &coarse
    };
    // Ring searches never need to leave the occupied bounding box.
    let max_ring = {
        // `occupied` is in key order, so its ends bound x.
        let (first, last) = (grid.occupied[0].0, grid.occupied[grid.occupied.len() - 1].0);
        let (y_min, y_max) = grid
            .occupied
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), (key, _)| {
                (lo.min(key.1), hi.max(key.1))
            });
        (last.0 - first.0).max(y_max - y_min) + 1
    };

    let mut root = vec![0; n];
    let mut size = vec![0usize; n];
    let mut best: Vec<Option<(f64, NodeId, NodeId)>> = vec![None; n];
    let mut bridges: Vec<(NodeId, NodeId, f64)> = Vec::new();
    while uf.components() > 1 {
        size.fill(0);
        for v in 0..n {
            root[v] = uf.find(pos[v]);
            size[root[v]] += 1;
        }
        // The largest component (ties: the one holding the smallest
        // vertex) stays passive — its edge will be chosen by a
        // neighbor — which keeps giant-component interior points from
        // running expensive searches.
        let giant = (0..n)
            .max_by_key(|&v| (size[root[v]], std::cmp::Reverse(v)))
            .map(|v| root[v])
            .expect("at least two components");

        // Minimum outgoing edge per active component under (d, u, v).
        for u in (0..n).filter(|&u| root[u] != giant) {
            let r = root[u];
            let (cx, cy) = cell_key(pts[u], s);
            let mut k = 0i64;
            loop {
                let bound = best[r].map_or(f64::INFINITY, |b| b.0);
                // Any point in a ring-k cell is at Euclidean
                // distance >= (k-1)*s from u.
                if k > max_ring || (k - 1) as f64 * s > bound {
                    break;
                }
                for_each_ring_cell(cx, cy, k, |cell| {
                    for &p in grid.members(cell) {
                        if root[p] == r {
                            continue;
                        }
                        let cand = (geo_dist(pts[u], pts[p]), u.min(p), u.max(p));
                        if best[r].is_none_or(|b| stitch_cmp(&cand, &b).is_lt()) {
                            best[r] = Some(cand);
                        }
                    }
                });
                k += 1;
            }
        }
        let mut chosen: Vec<(f64, NodeId, NodeId)> =
            best.iter_mut().filter_map(Option::take).collect();
        chosen.sort_by(stitch_cmp);
        for (d, u, v) in chosen {
            // Two components can only pick the same edge (their shared
            // cut minimum); a failed union is that duplicate, not a
            // conflict.
            if uf.union(pos[u], pos[v]) {
                bridges.push((u, v, d));
            }
        }
    }
    bridges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    bridges
}

/// `rows x cols` grid with uniform random weights in `[1, max_w]`.
pub fn grid(rows: usize, cols: usize, max_w: Weight, seed: u64) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let mut r = rng(seed);
    let n = rows * cols;
    let idx = |i: usize, j: usize| i * cols + j;
    let mut g = Graph::new(n);
    for i in 0..rows {
        for j in 0..cols {
            if j + 1 < cols {
                g.add_edge(idx(i, j), idx(i, j + 1), r.gen_range(1..=max_w))
                    .expect("valid");
            }
            if i + 1 < rows {
                g.add_edge(idx(i, j), idx(i + 1, j), r.gen_range(1..=max_w))
                    .expect("valid");
            }
        }
    }
    g
}

/// Path graph `0 - 1 - ... - (n-1)` with the given constant weight.
pub fn path(n: usize, w: Weight) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(v - 1, v, w).expect("valid");
    }
    g
}

/// Cycle graph with the given constant weight.
pub fn cycle(n: usize, w: Weight) -> Graph {
    let mut g = path(n, w);
    if n >= 3 {
        g.add_edge(n - 1, 0, w).expect("valid");
    }
    g
}

/// Star graph: vertex 0 connected to all others with weights `1..=max_w`.
pub fn star(n: usize, max_w: Weight, seed: u64) -> Graph {
    let mut r = rng(seed);
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(0, v, r.gen_range(1..=max_w)).expect("valid");
    }
    g
}

/// Complete graph with uniform random weights — the densest stress case.
pub fn complete(n: usize, max_w: Weight, seed: u64) -> Graph {
    let mut r = rng(seed);
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v, r.gen_range(1..=max_w)).expect("valid");
        }
    }
    g
}

/// A "caterpillar with heavy legs": a light path spine plus heavy leaf
/// edges. Exercises the SLT tradeoff (the MST is the spine + legs, the
/// SPT wants direct heavy edges).
pub fn caterpillar(spine: usize, legs_per_node: usize, seed: u64) -> Graph {
    assert!(spine >= 1);
    let mut r = rng(seed);
    let n = spine + spine * legs_per_node;
    let mut g = Graph::new(n);
    for v in 1..spine {
        g.add_edge(v - 1, v, r.gen_range(1..=4)).expect("valid");
    }
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs_per_node {
            g.add_edge(s, next, r.gen_range(50..=100)).expect("valid");
            next += 1;
        }
    }
    g
}

/// Root-anchored SLT-tradeoff instance ("comb"): a unit-weight spine
/// `0 - 1 - … - (n-1)` plus direct shortcuts `(0, v)` of weight
/// `max(1, v/t)`. The MST is the light spine (root stretch ≈ `t`), the
/// shortest-path tree is the heavy star (stretch 1, weight ≈ `n²/2t`),
/// and shallow-light trees interpolate between them — the tension
/// Theorem 1 resolves.
pub fn comb(n: usize, t: Weight) -> Graph {
    assert!(n >= 2 && t >= 1);
    let mut g = path(n, 1);
    for v in 2..n {
        g.add_edge(0, v, (v as Weight / t).max(1))
            .expect("valid shortcut");
    }
    g
}

/// The named workload families used across the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`erdos_renyi`] with p = 8/n.
    ErdosRenyi,
    /// [`random_geometric`] with radius chosen for average degree ≈ 8.
    Geometric,
    /// [`tree_plus_chords`] with n/2 chords.
    TreeChords,
    /// [`grid`] (⌈√n⌉ × ⌈√n⌉).
    Grid,
}

impl Family {
    /// All families, for sweeps.
    pub const ALL: [Family; 4] = [
        Family::ErdosRenyi,
        Family::Geometric,
        Family::TreeChords,
        Family::Grid,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Family::ErdosRenyi => "erdos-renyi",
            Family::Geometric => "geometric",
            Family::TreeChords => "tree+chords",
            Family::Grid => "grid",
        }
    }

    /// Instantiates the family at size ≈ `n` with the given seed.
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        match self {
            Family::ErdosRenyi => erdos_renyi(n, (8.0 / n as f64).min(1.0), 100, seed),
            Family::Geometric => {
                // radius for expected degree ~8: pi r^2 n = 8
                let r = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
                random_geometric(n, r, seed)
            }
            Family::TreeChords => tree_plus_chords(n, n / 2, 100, seed),
            Family::Grid => {
                let side = (n as f64).sqrt().ceil() as usize;
                grid(side, side, 100, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "WeightTooLarge { u: 0, v: 1, w: ")]
    fn weights_past_the_inf_bound_fail_at_construction() {
        // max_w above INF itself: on 16 vertices the first edge drawn
        // above INF / 16 is rejected while the grid is built, instead of
        // overflowing path lengths in whatever runs on it.
        grid(4, 4, 6_917_529_027_641_081_856, 1);
    }

    #[test]
    fn erdos_renyi_is_connected_and_sized() {
        for seed in 0..5 {
            let g = erdos_renyi(50, 0.05, 100, seed);
            assert_eq!(g.n(), 50);
            assert!(g.is_connected());
            assert!(g.m() >= 49);
            assert!(g.min_weight() >= 1 && g.max_weight() <= 100);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = erdos_renyi(30, 0.2, 50, 42);
        let b = erdos_renyi(30, 0.2, 50, 42);
        assert_eq!(a.edges(), b.edges());
        let c = random_geometric(30, 0.3, 42);
        let d = random_geometric(30, 0.3, 42);
        assert_eq!(c.edges(), d.edges());
    }

    #[test]
    fn geometric_is_connected_even_with_tiny_radius() {
        let g = random_geometric(40, 0.01, 9);
        assert!(g.is_connected());
    }

    #[test]
    fn geometric_weights_are_metric_ish() {
        // triangle inequality holds for the underlying points, so direct
        // edges are never longer than 2-hop detours by more than rounding.
        let g = random_geometric(25, 0.5, 3);
        let ap = crate::dijkstra::all_pairs(&g);
        for e in g.edges() {
            assert!(e.w <= ap[e.u][e.v] + 2, "edge heavier than shortest path");
        }
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4, 10, 1);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert!(g.is_connected());
    }

    #[test]
    fn path_cycle_star_shapes() {
        assert_eq!(path(5, 2).m(), 4);
        assert_eq!(cycle(5, 2).m(), 5);
        assert_eq!(star(5, 9, 0).m(), 4);
        assert_eq!(complete(5, 9, 0).m(), 10);
        assert!(cycle(2, 1).is_connected());
    }

    #[test]
    fn gnp_sparse_is_connected_deterministic_and_sized() {
        for seed in 0..5 {
            let n = 400;
            let g = gnp_sparse(n, 8.0 / n as f64, 100, seed);
            assert!(g.is_connected());
            let extra = g.m() - (n - 1);
            // expected extra edges ≈ p · (C(n,2) − (n−1)) ≈ 1590;
            // loose 3σ-ish band to keep the test robust
            assert!(
                (1100..2100).contains(&extra),
                "seed {seed}: {extra} extra edges is implausible for p=8/n"
            );
        }
        let a = gnp_sparse(300, 0.03, 50, 9);
        let b = gnp_sparse(300, 0.03, 50, 9);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn gnp_sparse_extremes() {
        let g = gnp_sparse(40, 0.0, 10, 1);
        assert_eq!(g.m(), 39, "p=0 keeps only the spanning tree");
        let g = gnp_sparse(12, 1.0, 10, 1);
        assert_eq!(g.m(), 12 * 11 / 2, "p=1 yields the complete graph");
        let g = gnp_sparse(1, 0.5, 10, 1);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn tree_plus_chords_counts() {
        let g = tree_plus_chords(40, 10, 100, 8);
        assert!(g.is_connected());
        assert_eq!(g.m(), 39 + 10);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(5, 2, 1);
        assert_eq!(g.n(), 15);
        assert!(g.is_connected());
    }

    #[test]
    fn comb_has_cheap_shortcuts_and_light_spine() {
        let g = comb(64, 8);
        let m = crate::mst::kruskal(&g);
        assert_eq!(m.weight, 63, "MST must be the unit spine");
        // direct shortcut is the shortest route for far vertices
        let d = crate::dijkstra::shortest_paths(&g, 0);
        assert_eq!(d.dist[63], 63 / 8);
        // the SPT is much heavier than the MST
        let spt_w: u64 = (0..g.n())
            .filter_map(|v| d.parent[v].map(|(_, e)| g.edge(e).w))
            .sum();
        assert!(
            spt_w > 3 * m.weight,
            "SPT weight {spt_w} vs MST {}",
            m.weight
        );
    }

    #[test]
    fn families_generate_connected() {
        for f in Family::ALL {
            let g = f.generate(64, 5);
            assert!(g.is_connected(), "family {} disconnected", f.name());
            assert!(g.n() >= 64);
        }
    }
}
