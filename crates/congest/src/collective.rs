//! Lemma-1 collectives on a BFS tree.
//!
//! Lemma 1 of the paper: if the vertices collectively hold `M` messages
//! of `O(1)` words, all vertices can receive all messages within
//! `O(M + D)` rounds. We realize the two directions separately:
//!
//! * [`broadcast`] — the root pipelines `M` items down the tree:
//!   `M + height` rounds at cap 1.
//! * [`converge_merged`] / [`gather_merged`] — the keyed convergecast:
//!   every vertex contributes keyed items, items sharing a key merge
//!   under a *semilattice* merge (a selection such as a min or a max),
//!   and the root ends with the merged map. Items flow upward *eagerly*:
//!   the per-key merge runs inside each node's partial map and, as the
//!   contract-clause-7 per-edge message combiner, while superseded
//!   items are still queued in flight. There is no `DONE` control
//!   traffic, and a slow subtree never head-of-line-blocks settled
//!   keys, which is what keeps the landmark pairwise gather pipelined
//!   (see `dist_sssp::landmark`).
//! * [`sum`] — a fixed-width two-word sum: one message per tree edge
//!   and `height` rounds, no keys and no per-node maps. A census ("is
//!   any vertex still active?") is a count, so it is a sum.
//! * [`downcast`] — the *targeted* inverse of [`gather_merged`]: the
//!   root unicasts each keyed item down the tree path to one designated
//!   vertex. An item costs `O(depth(target))` deliveries instead of the
//!   `O(n)` a broadcast pays, which is what makes "convergecast to rt,
//!   compute locally, return each vertex *its own* answer" affordable
//!   when the answers differ per vertex (Euler-tour shifts, Borůvka
//!   relabels, BP₂ membership).
//!
//! Together, `gather_merged` + `broadcast` implement the paper's
//! recurring "convergecast to rt, compute locally, broadcast the
//! answer" pattern; `gather_merged` + `downcast` is the message-lean
//! variant for per-vertex answers.
//!
//! One primitive here needs no tree: [`exchange`], the one-round
//! neighbour exchange. Each sending vertex stages one fixed-width
//! payload to a chosen neighbour list, and every vertex returns what it
//! heard. Borůvka's fragment-id refresh, light-spanner Case 2's state
//! exchange and every Baswana–Sen phase are this exchange.

use crate::exec::Executor;
use crate::message::{pack2, unpack2, Message, Word, WORDS_PER_MESSAGE};
use crate::program::{Ctx, Program, RunStats};
use crate::tree::BfsTree;
use lightgraph::NodeId;
use std::collections::BTreeMap;

/// A keyed item: `(key, value)` where the value is two words. Keys are
/// application-defined (cluster ids, packed id pairs, …).
pub type Item = (Word, [Word; 2]);

const TAG_ITEM: u64 = 1;
const TAG_SEND: u64 = 3;
const TAG_EXCHANGE: u64 = 4;

// ---------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------

struct BroadcastProgram<'a> {
    parent: Option<NodeId>,
    children: &'a [NodeId],
    /// Only the root holds items initially.
    initial: Vec<Item>,
    received: Vec<Item>,
}

impl Program for BroadcastProgram<'_> {
    type Output = Vec<Item>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if self.parent.is_none() {
            for &(k, [a, b]) in &self.initial {
                for &c in self.children {
                    ctx.send(c, Message::words(&[TAG_ITEM, k, a, b]));
                }
            }
            self.received = self.initial.clone();
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (_, msg) in inbox {
            debug_assert_eq!(msg.word(0), TAG_ITEM);
            let item = (msg.word(1), [msg.word(2), msg.word(3)]);
            self.received.push(item);
            for &c in self.children {
                ctx.send(c, msg.clone());
            }
        }
    }

    fn finish(self) -> Vec<Item> {
        self.received
    }
}

/// Pipelines `items` from the tree root to every vertex.
///
/// Every vertex receives all items in the root's order. Takes
/// `|items| + height` rounds at cap 1 (`O(M + D)`, Lemma 1).
pub fn broadcast<'g, E: Executor<'g>>(
    sim: &mut E,
    tree: &BfsTree,
    items: Vec<Item>,
) -> (Vec<Vec<Item>>, RunStats) {
    let root = tree.root;
    sim.run(|v, _| BroadcastProgram {
        parent: tree.parent[v],
        children: &tree.children[v],
        initial: if v == root { items.clone() } else { Vec::new() },
        received: Vec::new(),
    })
}

// ---------------------------------------------------------------------
// Downcast (targeted unicast down tree paths)
// ---------------------------------------------------------------------

struct DowncastProgram<'a> {
    /// Only the root holds items initially: `(target, (key, value))`.
    initial: Vec<(NodeId, Item)>,
    /// Next hop per routed target at this vertex (targets whose root
    /// path passes through here).
    route: &'a BTreeMap<Word, NodeId>,
    received: Vec<Item>,
}

impl Program for DowncastProgram<'_> {
    type Output = Vec<Item>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.node();
        for (t, (k, [a, b])) in std::mem::take(&mut self.initial) {
            if t == me {
                // Root-addressed items are already home: free.
                self.received.push((k, [a, b]));
            } else {
                let next = self.route[&(t as Word)];
                // tag and target share a word (both fit 32 bits), so the
                // whole envelope fits the CONGEST word budget
                ctx.send(next, Message::words(&[pack2(TAG_SEND, t as Word), k, a, b]));
            }
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        let me = ctx.node();
        for (_, msg) in inbox {
            let (tag, t) = unpack2(msg.word(0));
            debug_assert_eq!(tag, TAG_SEND);
            if t as NodeId == me {
                self.received
                    .push((msg.word(1), [msg.word(2), msg.word(3)]));
            } else {
                ctx.send(self.route[&t], msg.clone());
            }
        }
    }

    fn finish(self) -> Vec<Item> {
        self.received
    }
}

/// Unicasts each keyed item from the tree root to its designated target
/// vertex, along the unique tree path. Returns, per vertex, the items
/// addressed to it, in the root's emission order (ties between targets
/// sharing a path prefix pipeline at cap 1).
///
/// Cost: `Σ depth(target)` deliveries and `O(|items| + height)` rounds —
/// the point of the primitive: per-vertex answers computed at the root
/// (fragment shifts, new fragment ids, selected tour positions) return
/// without the `O(|items| · n)` a [`broadcast`] would pay. Items
/// addressed to the root itself are recorded locally for free.
///
/// The per-vertex routing tables (`target → child`) are derived from
/// `tree` alone by walking each target's parent chain once — free local
/// precomputation performed by the orchestrator on the vertices' behalf,
/// like the tree itself.
///
/// # Examples
///
/// Route per-vertex answers from the root of a BFS tree to their
/// targets on a path `0 – 1 – 2 – 3`; each vertex receives exactly the
/// items addressed to it, in the root's emission order:
///
/// ```
/// use congest::collective::downcast;
/// use congest::tree::build_bfs_tree;
/// use congest::Simulator;
/// use lightgraph::generators;
///
/// let g = generators::path(4, 1);
/// let mut sim = Simulator::new(&g);
/// let (tree, _) = build_bfs_tree(&mut sim, 0);
/// let items = vec![(2, (7, [70, 700])), (3, (9, [90, 900])), (2, (8, [80, 800]))];
/// let (per_vertex, _stats) = downcast(&mut sim, &tree, items);
/// assert_eq!(per_vertex[2], vec![(7, [70, 700]), (8, [80, 800])]);
/// assert_eq!(per_vertex[3], vec![(9, [90, 900])]);
/// assert!(per_vertex[0].is_empty() && per_vertex[1].is_empty());
/// ```
pub fn downcast<'g, E: Executor<'g>>(
    sim: &mut E,
    tree: &BfsTree,
    items: Vec<(NodeId, Item)>,
) -> (Vec<Vec<Item>>, RunStats) {
    let mut route: Vec<BTreeMap<Word, NodeId>> = vec![BTreeMap::new(); tree.parent.len()];
    for &(t, _) in &items {
        let mut cur = t;
        while let Some(p) = tree.parent[cur] {
            route[p].insert(t as Word, cur);
            cur = p;
        }
        debug_assert_eq!(cur, tree.root, "target {t} not under the root");
    }
    let root = tree.root;
    sim.run(|v, _| DowncastProgram {
        initial: if v == root { items.clone() } else { Vec::new() },
        route: &route[v],
        received: Vec::new(),
    })
}

// ---------------------------------------------------------------------
// Eager keyed convergecast
// ---------------------------------------------------------------------

/// The eager convergecast program: holds the per-key merge of
/// everything seen so far and forwards an item upward the moment it
/// *improves* the held value (merge result differs), relying on the
/// clause-7 per-edge combiner — the same merge, applied to co-queued
/// messages — to collapse superseded items still in flight.
struct EagerConvergeProgram<C> {
    parent: Option<NodeId>,
    merged: BTreeMap<Word, [Word; 2]>,
    combine: C,
    /// `false` disables the clause-7 message combiner (the
    /// "non-combined path" of the equivalence proptests); the program
    /// logic is otherwise identical.
    use_combiner: bool,
}

impl<C: Fn(Word, [Word; 2], [Word; 2]) -> [Word; 2]> EagerConvergeProgram<C> {
    /// Merges `(key, val)` into the held map; returns whether the held
    /// value changed (i.e. the item must be forwarded).
    fn insert(&mut self, key: Word, val: [Word; 2]) -> bool {
        // The eager contract requires an idempotent (semilattice)
        // merge — see `converge_merged_with`. Spot-check each item.
        debug_assert_eq!(
            (self.combine)(key, val, val),
            val,
            "converge_merged requires an idempotent merge (key {key})"
        );
        match self.merged.entry(key) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(val);
                true
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let cur = *e.get();
                let merged = (self.combine)(key, cur, val);
                if merged == cur {
                    false
                } else {
                    e.insert(merged);
                    true
                }
            }
        }
    }

    fn emit(&self, ctx: &mut Ctx<'_>, key: Word) {
        if let Some(parent) = self.parent {
            let [a, b] = self.merged[&key];
            ctx.send(parent, Message::words(&[TAG_ITEM, key, a, b]));
        }
    }
}

impl<C: Fn(Word, [Word; 2], [Word; 2]) -> [Word; 2]> Program for EagerConvergeProgram<C> {
    type Output = BTreeMap<Word, [Word; 2]>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        // The map already holds this node's own items (inserted at
        // construction); announce them all, in key order.
        let keys: Vec<Word> = self.merged.keys().copied().collect();
        for key in keys {
            self.emit(ctx, key);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        // Absorb the whole inbox first, then emit each improved key
        // once with its final merged value (batching duplicates that
        // arrived in the same round from different children).
        let mut improved: Vec<Word> = Vec::new();
        for (_, msg) in inbox {
            debug_assert_eq!(msg.word(0), TAG_ITEM);
            let key = msg.word(1);
            if self.insert(key, [msg.word(2), msg.word(3)]) && !improved.contains(&key) {
                improved.push(key);
            }
        }
        for key in improved {
            self.emit(ctx, key);
        }
    }

    /// Clause-7 key: the item key itself (all eager-convergecast
    /// traffic is `TAG_ITEM`, so the key alone identifies the stream).
    fn combine_key(&self, msg: &Message) -> Option<Word> {
        if !self.use_combiner {
            return None;
        }
        debug_assert_eq!(msg.word(0), TAG_ITEM);
        Some(msg.word(1))
    }

    /// Clause-7 merge: the caller's per-key merge, lifted to messages.
    /// Lawful because the eager contract demands a semilattice merge
    /// (associative, commutative, **idempotent** — see
    /// [`converge_merged_with`]); key-stable by construction since
    /// words 0–1 are kept verbatim.
    fn combine(&self, queued: &Message, incoming: &Message) -> Message {
        debug_assert_eq!(queued.word(1), incoming.word(1), "same item key");
        let key = queued.word(1);
        let merged = (self.combine)(
            key,
            [queued.word(2), queued.word(3)],
            [incoming.word(2), incoming.word(3)],
        );
        Message::words(&[TAG_ITEM, key, merged[0], merged[1]])
    }

    fn finish(self) -> BTreeMap<Word, [Word; 2]> {
        self.merged
    }
}

/// Keyed convergecast: every vertex contributes `items(v)`, values
/// sharing a key merge through `combine(key, a, b)`, and the root's
/// merged map is returned. Items flow upward **eagerly** and superseded
/// re-emissions are collapsed *in flight* by the clause-7 per-edge
/// message combiner (the same merge). Two consequences:
///
/// * nothing waits for a slower key: a slow subtree cannot
///   head-of-line-block keys that are already settled elsewhere, so
///   long pairwise gathers pipeline at the bandwidth floor;
/// * a key crosses an edge once per *improvement that outlives the
///   backlog* — for duplicate-heavy streams (e.g. both endpoints of a
///   landmark pair reporting the same distance) the duplicates merge
///   either in a node's map or in its parent queue and are never
///   delivered twice.
///
/// `combine` must be a *semilattice* merge — associative, commutative,
/// **and idempotent** (`combine(k, a, a) == a`), i.e. a selection such
/// as a componentwise or lexicographic min/max. The eager program
/// forwards its *held merged value* on every improvement, so an
/// upstream node may absorb the same original contribution through
/// several emissions; idempotence is what makes re-absorption a no-op,
/// and the root map is the sequential fold of every vertex's items
/// under `combine`, whatever the schedule. Aggregations like sums or
/// counts are **not** lawful here (the root would double-count) — use
/// [`sum`] for a total or a count.
/// Idempotence is spot-checked per item in debug builds.
///
/// `set_combiner = false` runs the identical eager program without the
/// clause-7 message combiner — the reference path the equivalence
/// proptests compare against.
pub fn converge_merged_with<'g, E, C>(
    sim: &mut E,
    tree: &BfsTree,
    items: impl Fn(NodeId) -> Vec<Item>,
    combine: C,
    set_combiner: bool,
) -> (BTreeMap<Word, [Word; 2]>, RunStats)
where
    E: Executor<'g>,
    C: Fn(Word, [Word; 2], [Word; 2]) -> [Word; 2] + Clone + Send,
{
    let root = tree.root;
    let (mut out, stats) = sim.run(|v, _| {
        let mut p = EagerConvergeProgram {
            parent: tree.parent[v],
            merged: BTreeMap::new(),
            combine: combine.clone(),
            use_combiner: set_combiner,
        };
        for (k, val) in items(v) {
            p.insert(k, val);
        }
        p
    });
    (std::mem::take(&mut out[root]), stats)
}

/// [`converge_merged_with`] with the clause-7 combiner enabled — the
/// production entry point.
pub fn converge_merged<'g, E, C>(
    sim: &mut E,
    tree: &BfsTree,
    items: impl Fn(NodeId) -> Vec<Item>,
    combine: C,
) -> (BTreeMap<Word, [Word; 2]>, RunStats)
where
    E: Executor<'g>,
    C: Fn(Word, [Word; 2], [Word; 2]) -> [Word; 2] + Clone + Send,
{
    converge_merged_with(sim, tree, items, combine, true)
}

/// [`converge_merged`] where duplicate keys keep the lexicographically
/// smaller value, in nodes *and in flight*. With `val = [weight, edge
/// id]` that is the lightest edge per key, a weight tie going to the
/// smaller edge id whatever the arrival order (light-spanner Case 1,
/// Borůvka's MWOE). The landmark pairwise gather uses it to collapse
/// superseded bounded-distance items (`val = [distance, _]`, so the
/// smaller genuine path length wins).
pub fn gather_merged<'g, E: Executor<'g>>(
    sim: &mut E,
    tree: &BfsTree,
    items: impl Fn(NodeId) -> Vec<Item>,
) -> (BTreeMap<Word, [Word; 2]>, RunStats) {
    converge_merged(sim, tree, items, |_, a, b| a.min(b))
}

// ---------------------------------------------------------------------
// Fixed-width sum
// ---------------------------------------------------------------------

struct SumProgram {
    parent: Option<NodeId>,
    pending_children: usize,
    acc: [Word; 2],
    sent: bool,
}

impl SumProgram {
    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_children == 0 && !self.sent {
            self.sent = true;
            if let Some(parent) = self.parent {
                ctx.send(parent, Message::words(&self.acc));
            }
        }
    }
}

impl Program for SumProgram {
    type Output = [Word; 2];

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.try_send(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (_, msg) in inbox {
            self.acc[0] += msg.word(0);
            self.acc[1] += msg.word(1);
            self.pending_children -= 1;
        }
        self.try_send(ctx);
    }

    fn finish(self) -> [Word; 2] {
        self.acc
    }
}

/// Sums a two-word value over the whole tree: every vertex contributes
/// `own(v)`, and once all its children have reported it sends its
/// subtree's sum to its parent. The root's total is returned.
///
/// One two-word message per tree edge and `height` rounds — the fixed
/// width is what a sum needs, where a keyed convergecast pays a key per
/// item, per-node maps and re-emissions. A census of 0/1 flags is a
/// count, so "is any flag set?" is `sum(..)[0] != 0`.
pub fn sum<'g, E: Executor<'g>>(
    sim: &mut E,
    tree: &BfsTree,
    own: impl Fn(NodeId) -> [Word; 2],
) -> ([Word; 2], RunStats) {
    let (out, stats) = sim.run(|v, _| SumProgram {
        parent: tree.parent[v],
        pending_children: tree.children[v].len(),
        acc: own(v),
        sent: false,
    });
    (out[tree.root], stats)
}

// ---------------------------------------------------------------------
// Neighbour exchange
// ---------------------------------------------------------------------

struct ExchangeProgram<T, const W: usize> {
    /// `Some((payload, targets))` at a vertex that sends.
    send: Option<([Word; W], T)>,
    heard: Vec<(NodeId, [Word; W])>,
}

impl<T: IntoIterator<Item = NodeId>, const W: usize> Program for ExchangeProgram<T, W> {
    type Output = Vec<(NodeId, [Word; W])>;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((payload, targets)) = self.send.take() {
            let mut words = [TAG_EXCHANGE; WORDS_PER_MESSAGE];
            words[1..=W].copy_from_slice(&payload);
            let msg = Message::words(&words[..=W]);
            for u in targets {
                ctx.send(u, msg.clone());
            }
        }
    }

    fn round(&mut self, _ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        for (from, msg) in inbox {
            debug_assert_eq!(msg.word(0), TAG_EXCHANGE);
            let mut payload = [0; W];
            payload.copy_from_slice(&msg.as_words()[1..]);
            self.heard.push((*from, payload));
        }
    }

    fn finish(self) -> Self::Output {
        self.heard
    }
}

/// One-round neighbour exchange. Each vertex with `send(v) =
/// Some((payload, targets))` stages `payload` (behind a one-word tag)
/// to each of `targets`, in order, during `init`. A target listed twice
/// gets two messages, so listing every neighbour in adjacency order
/// stages exactly what [`Ctx::send_all`] would, one message per
/// parallel edge.
///
/// Returns, per vertex, the `(sender, payload)` pairs it received, in
/// inbox order. One round when no target is listed twice: copies to one
/// target share its edge's queue, so at cap 1 the `k`-th copy arrives in
/// round `k`. `W` is the caller's payload width, at most three words (a
/// message holds [`WORDS_PER_MESSAGE`] words, one of them the tag); a
/// narrow payload keeps the returned records small.
pub fn exchange<'g, E, T, const W: usize>(
    sim: &mut E,
    send: impl Fn(NodeId) -> Option<([Word; W], T)>,
) -> (Vec<Vec<(NodeId, [Word; W])>>, RunStats)
where
    E: Executor<'g>,
    T: IntoIterator<Item = NodeId> + Send,
{
    sim.run(|v, _| ExchangeProgram {
        send: send(v),
        heard: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::build_bfs_tree;
    use crate::Simulator;
    use lightgraph::generators;

    #[test]
    fn broadcast_reaches_everyone_in_order() {
        let g = generators::erdos_renyi(32, 0.12, 9, 7);
        let mut sim = Simulator::new(&g);
        let (tree, _) = build_bfs_tree(&mut sim, 0);
        let items: Vec<Item> = (0..20).map(|i| (i, [i * 10, i * 100])).collect();
        let (out, stats) = broadcast(&mut sim, &tree, items.clone());
        for v in 0..g.n() {
            assert_eq!(out[v], items, "vertex {v} missed items");
        }
        assert!(
            stats.rounds <= items.len() as u64 + tree.height() + 2,
            "broadcast not pipelined: {} rounds for {} items, height {}",
            stats.rounds,
            items.len(),
            tree.height()
        );
    }

    #[test]
    fn broadcast_of_nothing_is_instant() {
        let g = generators::path(5, 1);
        let mut sim = Simulator::new(&g);
        let (tree, _) = build_bfs_tree(&mut sim, 0);
        let (out, stats) = broadcast(&mut sim, &tree, Vec::new());
        assert!(out.iter().all(|v| v.is_empty()));
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn downcast_delivers_each_item_to_its_target_only() {
        let g = generators::erdos_renyi(32, 0.12, 9, 7);
        let mut sim = Simulator::new(&g);
        let (tree, _) = build_bfs_tree(&mut sim, 0);
        // two items to vertex 5 (order preserved), one to 17, one to the
        // root itself (free), none to anyone else
        let items: Vec<(NodeId, Item)> = vec![
            (5, (100, [1, 2])),
            (17, (200, [3, 4])),
            (5, (101, [5, 6])),
            (0, (300, [7, 8])),
        ];
        let (out, stats) = downcast(&mut sim, &tree, items);
        assert_eq!(out[5], vec![(100, [1, 2]), (101, [5, 6])]);
        assert_eq!(out[17], vec![(200, [3, 4])]);
        assert_eq!(out[0], vec![(300, [7, 8])]);
        for v in 0..g.n() {
            if ![0, 5, 17].contains(&v) {
                assert!(out[v].is_empty(), "vertex {v} must receive nothing");
            }
        }
        // cost = sum of target depths, not O(n) per item
        let depth_sum = tree.depth[5] + tree.depth[17] + tree.depth[5];
        assert_eq!(stats.messages, depth_sum, "one hop per path edge");
    }

    #[test]
    fn downcast_pipelines_on_a_path() {
        let g = generators::path(16, 1);
        let mut sim = Simulator::new(&g);
        let (tree, _) = build_bfs_tree(&mut sim, 0);
        let items: Vec<(NodeId, Item)> = (1..16)
            .map(|v| (v, (v as u64, [v as u64 * 3, 0])))
            .collect();
        let (out, stats) = downcast(&mut sim, &tree, items);
        for v in 1..16 {
            assert_eq!(out[v], vec![(v as u64, [v as u64 * 3, 0])]);
        }
        assert!(
            stats.rounds <= 15 + 15 + 2,
            "downcast not pipelined: {} rounds",
            stats.rounds
        );
    }

    #[test]
    fn downcast_of_nothing_is_instant() {
        let g = generators::grid(4, 4, 2, 2);
        let mut sim = Simulator::new(&g);
        let (tree, _) = build_bfs_tree(&mut sim, 0);
        let (out, stats) = downcast(&mut sim, &tree, Vec::new());
        assert!(out.iter().all(Vec::is_empty));
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn converge_max_finds_global_max_per_key() {
        let g = generators::erdos_renyi(40, 0.1, 9, 8);
        let mut sim = Simulator::new(&g);
        let (tree, _) = build_bfs_tree(&mut sim, 3);
        // key = v % 4, value = v
        let (got, _) = converge_merged(
            &mut sim,
            &tree,
            |v| vec![((v % 4) as u64, [v as u64, 0])],
            |_, a, b| a.max(b),
        );
        for k in 0..4u64 {
            let expect = (0..40u64).filter(|v| v % 4 == k).max().unwrap();
            assert_eq!(got[&k][0], expect, "key {k}");
        }
    }

    #[test]
    fn sum_counts_vertices() {
        let g = generators::grid(6, 6, 3, 1);
        let mut sim = Simulator::new(&g);
        sim.set_validate_activation(true);
        let (tree, _) = build_bfs_tree(&mut sim, 0);
        let (got, stats) = sum(&mut sim, &tree, |_| [1, 2]);
        assert_eq!(got, [36, 72]);
        assert_eq!(stats.messages, 35, "one message per tree edge");
        assert_eq!(stats.rounds, tree.height(), "one round per level");
    }

    #[test]
    fn converge_min_keeps_payload_of_minimum() {
        let g = generators::path(6, 1);
        let mut sim = Simulator::new(&g);
        let (tree, _) = build_bfs_tree(&mut sim, 0);
        let (got, _) = gather_merged(&mut sim, &tree, |v| vec![(0, [(10 - v) as u64, v as u64])]);
        assert_eq!(got[&0], [5, 5]); // v=5 has min first word, payload rides along
    }

    #[test]
    fn gather_collects_distinct_items_pipelined() {
        let g = generators::path(16, 1);
        let mut sim = Simulator::new(&g);
        let (tree, _) = build_bfs_tree(&mut sim, 0);
        let (got, stats) = gather_merged(&mut sim, &tree, |v| vec![(v as u64, [v as u64 * 7, 0])]);
        assert_eq!(got.len(), 16);
        for v in 0..16u64 {
            assert_eq!(got[&v][0], v * 7);
        }
        // Path of length 15, 16 items: pipelining should finish well under
        // the naive 16*15 bound.
        assert!(
            stats.rounds <= 16 + 15 + 5,
            "gather not pipelined: {}",
            stats.rounds
        );
    }

    /// The sequential reference: every vertex's items folded into one
    /// map under `merge`, in vertex order.
    fn fold(
        n: usize,
        items: impl Fn(NodeId) -> Vec<Item>,
        merge: impl Fn(Word, [Word; 2], [Word; 2]) -> [Word; 2],
    ) -> BTreeMap<Word, [Word; 2]> {
        let mut map = BTreeMap::new();
        for (k, val) in (0..n).flat_map(items) {
            let cur = *map.entry(k).or_insert(val);
            map.insert(k, merge(k, cur, val));
        }
        map
    }

    #[test]
    fn eager_converge_matches_sequential_fold() {
        let g = generators::erdos_renyi(40, 0.1, 9, 12);
        // Two items per vertex, with ties on the first value word.
        let items = |v: NodeId| {
            vec![
                ((v % 6) as u64, [(v * 13 % 17) as u64, v as u64]),
                ((v % 4) as u64 + 10, [(v % 3) as u64, (v * 7 % 11) as u64]),
            ]
        };
        type Merge = fn(Word, [Word; 2], [Word; 2]) -> [Word; 2];
        let merges: [(&str, Merge); 2] = [
            ("lexicographic min", |_, a, b| a.min(b)),
            // Light-spanner Case 1's selection: the larger first word,
            // then the smaller second.
            ("max then min", |_, a, b| {
                if a[0] > b[0] || (a[0] == b[0] && a[1] <= b[1]) {
                    a
                } else {
                    b
                }
            }),
        ];
        for (name, merge) in merges {
            for root in [2, 31] {
                for cap in [1, 3] {
                    let mut sim = Simulator::new(&g);
                    sim.set_cap(cap);
                    let (tree, _) = build_bfs_tree(&mut sim, root);
                    let (got, _) = converge_merged(&mut sim, &tree, items, merge);
                    let want = fold(g.n(), items, merge);
                    assert_eq!(got, want, "{name}, root {root}, cap {cap}");
                }
            }
        }
    }

    #[test]
    fn eager_converge_passes_the_dense_validator() {
        let g = generators::grid(5, 5, 4, 3);
        let mut sim = Simulator::new(&g);
        sim.set_validate_activation(true);
        let (tree, _) = build_bfs_tree(&mut sim, 0);
        let (got, _) = converge_merged(
            &mut sim,
            &tree,
            |v| vec![((v % 3) as u64, [v as u64, 0])],
            |_, a, b| a.min(b),
        );
        for k in 0..3u64 {
            let expect = (0..25u64).filter(|v| v % 3 == k).min().unwrap();
            assert_eq!(got[&k][0], expect, "key {k}");
        }
    }

    #[test]
    fn eager_converge_combiner_collapses_superseded_items_in_flight() {
        // Root 0 — 1 — 2: node 1 holds five backlog keys in front of
        // its copy of the shared key 100; node 2's better value for
        // key 100 arrives at node 1 in round 1, while node 1's own copy
        // is still queued behind the backlog — the improved re-emission
        // must merge into it in flight.
        let g = generators::path(3, 1);
        let run = |set_combiner: bool| {
            let mut sim = Simulator::new(&g);
            let (tree, _) = build_bfs_tree(&mut sim, 0);
            let (map, stats) = converge_merged_with(
                &mut sim,
                &tree,
                |v| match v {
                    1 => (1..=5)
                        .map(|k| (k, [k, k]))
                        .chain([(100, [10, 1])])
                        .collect(),
                    2 => vec![(100, [5, 2])],
                    _ => Vec::new(),
                },
                |_, a, b| a.min(b),
                set_combiner,
            );
            (map, stats)
        };
        let (map_c, stats_c) = run(true);
        let (map_u, stats_u) = run(false);
        assert_eq!(map_c, map_u, "combining must not change the root map");
        assert_eq!(map_c[&100], [5, 2], "global minimum for the shared key");
        assert!(
            stats_c.messages_combined > 0,
            "superseded shared-key items must merge in flight"
        );
        assert_eq!(stats_u.messages_combined, 0);
        assert!(stats_c.messages_delivered() <= stats_u.messages_delivered());
    }

    #[test]
    fn exchange_sends_once_per_listed_target() {
        // Path 0-1-2-3-4 plus an edge parallel to (1, 2) and a chord
        // (4, 0) inserted with reversed endpoints. Light-spanner Case 2
        // lists each distinct bucket neighbour once; with both 1-2 edges
        // and the chord in the bucket that is two neighbour pairs, four
        // directed.
        let mut g = generators::path(5, 1);
        g.add_edge(1, 2, 3).unwrap();
        g.add_edge(4, 0, 2).unwrap();
        let targets: [&[NodeId]; 5] = [&[4], &[2], &[1], &[], &[0]];
        let mut sim = Simulator::new(&g);
        let (heard, stats) = exchange(&mut sim, |v| {
            Some(([v as u64, 10 + v as u64, 7], targets[v].iter().copied()))
        });
        assert_eq!(stats.messages, 4, "one message per directed pair");
        assert_eq!(stats.rounds, 1);
        for (v, senders) in targets.iter().enumerate() {
            let want: Vec<(NodeId, [Word; 3])> = senders
                .iter()
                .map(|&u| (u, [u as u64, 10 + u as u64, 7]))
                .collect();
            assert_eq!(heard[v], want, "records heard at {v}");
        }
    }

    #[test]
    fn exchange_to_every_neighbour_crosses_each_parallel_edge() {
        // Baswana–Sen lists every neighbour in adjacency order, so each
        // of the parallel 1-2 edges carries a copy. Both copies queue on
        // the one directed edge the pair routes through, and the second
        // arrives a round later. Vertex 3 sends nothing.
        let mut g = generators::path(4, 1);
        g.add_edge(1, 2, 3).unwrap();
        let mut sim = Simulator::new(&g);
        let (heard, stats) = exchange(&mut sim, |v| {
            (v != 3).then(|| {
                (
                    [100 + v as u64, v as u64],
                    g.neighbors(v).iter().map(|&(u, _, _)| u),
                )
            })
        });
        assert_eq!(stats.messages, 7, "one message per edge slot of a sender");
        assert_eq!(stats.rounds, 2, "two copies share one queue at cap 1");
        assert_eq!(heard[0], vec![(1, [101, 1])]);
        assert_eq!(heard[1], vec![(0, [100, 0]), (2, [102, 2]), (2, [102, 2])]);
        assert_eq!(heard[2], vec![(1, [101, 1]), (1, [101, 1])]);
        assert_eq!(heard[3], vec![(2, [102, 2])]);
    }

    #[test]
    fn converge_handles_empty_contributions() {
        let g = generators::grid(4, 4, 2, 2);
        let mut sim = Simulator::new(&g);
        let (tree, _) = build_bfs_tree(&mut sim, 0);
        let (got, _) = converge_merged(
            &mut sim,
            &tree,
            |v| {
                if v == 9 {
                    vec![(42, [9, 9])]
                } else {
                    Vec::new()
                }
            },
            |_, a, b| a.max(b),
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[&42], [9, 9]);
    }
}
