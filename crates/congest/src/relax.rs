//! The keyed-relaxation subsystem: one implementation of the keyed
//! bounded distance-table machinery that every relaxation-style program
//! in this repository used to hand-roll.
//!
//! A *keyed relaxation* is the common core of multi-source Bellman–Ford
//! (§4/§7 of the paper), net deactivation (§6), and LE-list style
//! flooding: each node maintains, per key (a source index, an origin
//! vertex, …), a monotonically improving `(distance, aux)` estimate
//! with a predecessor pointer, absorbs neighbor announcements, and
//! re-announces its own improvements — subject to a distance bound and
//! a hop bound. Before this module existed, five files re-implemented
//! that loop with per-node `HashMap<NodeId, (Weight, Option<NodeId>)>`
//! tables and copy-pasted combiner boilerplate; now they share:
//!
//! * a **canonical wire codec** ([`RelaxMsg`]): 3 words —
//!   `pack2(tag, key)`, `dist`, `aux` (a hop counter for Bellman–Ford
//!   programs, a permutation rank for LE lists),
//! * the **lawful clause-7 combiner** ([`combine_key`]/[`combine_min`]):
//!   componentwise minimum over `(dist, aux)`, key-stable by
//!   construction because the merged message keeps word 0 verbatim —
//!   the single merge every keyed-relaxation program declares,
//! * a **dense table** ([`KeyedRelaxation`]): keys are small integers
//!   (source *indices*, not node ids), so per-node state is a flat
//!   `Vec` of [`Slot`]s — allocated on the first seed or improvement,
//!   so nodes a bounded exploration never reaches pay nothing — instead
//!   of a hash map per node,
//! * **activation/quiescence handling**: the ready-made
//!   [`RelaxProgram`] is message-driven (activation-correct by
//!   construction) and batches announcements per round — each key is
//!   re-announced at most once per [`Program::round`], with the final
//!   improved state, never once per improving inbox message,
//! * **truncation detection**: the table records whether any accepted
//!   improvement arrived with an exhausted hop budget. When the flag is
//!   `false` after an unbounded-distance run, *no relaxation was ever
//!   blocked by the hop bound*, so the run is — deterministically, not
//!   just w.h.p. — identical to an unbounded Bellman–Ford and its
//!   distances are exact. The landmark SPT's adaptive cutoff is built
//!   on exactly this certificate (see `dist_sssp::landmark`).

use crate::message::{pack2, unpack2, Message, Word};
use crate::program::{Ctx, Program};
use lightgraph::{NodeId, Weight, INF};

/// Sentinel for "no predecessor" in a [`Slot`].
const NO_PARENT: u64 = u64::MAX;

/// A decoded keyed-relaxation message (see the canonical codec in the
/// module docs): `key` identifies the table slot, `dist` is the
/// sender's estimate, `aux` rides along under the same componentwise
/// minimum (hop counters, permutation ranks).
///
/// # Examples
///
/// The canonical 3-word wire format survives an encode/decode
/// round-trip, and word 0 is the [`pack2`]-packed `(tag, key)` pair —
/// exactly the clause-7 combining key:
///
/// ```
/// use congest::pack2;
/// use congest::relax::{combine_key, RelaxMsg};
///
/// let update = RelaxMsg { key: 3, dist: 17, aux: 2 };
/// let wire = update.encode(9);
/// assert_eq!(wire.len(), 3, "tag+key, dist, aux");
/// assert_eq!(wire.word(0), pack2(9, 3));
/// assert_eq!(combine_key(&wire), wire.word(0));
/// assert_eq!(RelaxMsg::decode(9, &wire), update);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelaxMsg {
    /// Table key (a source index or origin vertex; must fit 32 bits).
    pub key: u64,
    /// Distance estimate.
    pub dist: Weight,
    /// Auxiliary word (hop counter, rank, …).
    pub aux: u64,
}

impl RelaxMsg {
    /// Encodes into the canonical 3-word wire format under `tag`.
    ///
    /// # Panics
    /// Panics if `tag` or `key` do not fit in 32 bits (via [`pack2`]).
    pub fn encode(&self, tag: u64) -> Message {
        Message::words(&[pack2(tag, self.key), self.dist, self.aux])
    }

    /// Decodes a canonical message, debug-asserting its tag.
    pub fn decode(tag: u64, msg: &Message) -> RelaxMsg {
        let (t, key) = unpack2(msg.word(0));
        debug_assert_eq!(t, tag, "relaxation message tag mismatch");
        RelaxMsg {
            key,
            dist: msg.word(1),
            aux: msg.word(2),
        }
    }
}

/// The combining key of a canonical relaxation message: word 0, which
/// packs `(tag, key)` — unique per `(message family, table key)`, so
/// updates for distinct keys never merge.
pub fn combine_key(msg: &Message) -> Word {
    msg.word(0)
}

/// The lawful clause-7 merge shared by every keyed-relaxation program:
/// componentwise minimum over `(dist, aux)`. Associative and
/// commutative (minima are), and key-stable because word 0 is kept
/// verbatim. The merged message *dominates* what it absorbed for
/// min-monotone tables: delivering only the survivor leads the receiver
/// to the same fixed point (see the clause-7 obligations in
/// [`Program`]).
pub fn combine_min(queued: &Message, incoming: &Message) -> Message {
    debug_assert_eq!(queued.word(0), incoming.word(0), "same (tag, key)");
    Message::words(&[
        queued.word(0),
        queued.word(1).min(incoming.word(1)),
        queued.word(2).min(incoming.word(2)),
    ])
}

/// One dense table slot: the best-known estimate for one key at one
/// node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Best distance estimate ([`INF`] = not reached).
    pub dist: Weight,
    /// Hop counter of the accepted estimate (travels in the message, so
    /// congestion delay never consumes hop budget).
    pub hops: u64,
    /// Predecessor towards the key's origin ([`NO_PARENT`] sentinel).
    parent: u64,
    /// Improved since the last flush?
    dirty: bool,
}

const EMPTY_SLOT: Slot = Slot {
    dist: INF,
    hops: 0,
    parent: NO_PARENT,
    dirty: false,
};

impl Slot {
    /// Whether this slot was ever reached (holds a finite estimate).
    pub fn reached(&self) -> bool {
        self.dist < INF
    }

    /// The predecessor, if any.
    pub fn parent(&self) -> Option<NodeId> {
        (self.parent != NO_PARENT).then_some(self.parent as NodeId)
    }
}

/// The dense keyed-relaxation component embedded by relaxation
/// programs: per-key `(dist, hops, parent)` slots, bound/hop-bound
/// gating, per-round announcement batching, and the canonical
/// codec/combiner. See the module docs for the design.
#[derive(Debug)]
pub struct KeyedRelaxation {
    tag: u64,
    keys: usize,
    bound: Weight,
    hop_bound: u64,
    /// Dense table, allocated on the first seed or improvement: a node
    /// the exploration never reaches allocates nothing. The table is
    /// allocated exactly when some slot is reached, which is what lets
    /// [`RelaxTable`] derive its equality.
    slots: Vec<Slot>,
    /// Keys improved since the last flush, in first-improvement order
    /// (deterministic: inbox order is contract-pinned).
    improved: Vec<u32>,
    truncated: bool,
}

impl KeyedRelaxation {
    /// Creates an empty table over `keys` keys with a distance bound
    /// and a hop bound (`u64::MAX` = unbounded).
    ///
    /// # Panics
    /// Panics if `tag` or `keys` do not fit in 32 bits (the canonical
    /// codec packs both into one word).
    pub fn new(tag: u64, keys: usize, bound: Weight, hop_bound: u64) -> Self {
        assert!(tag < (1 << 32), "relaxation tag must fit in 32 bits");
        assert!((keys as u64) < (1 << 32), "keys must fit in 32 bits");
        KeyedRelaxation {
            tag,
            keys,
            bound,
            hop_bound,
            slots: Vec::new(),
            improved: Vec::new(),
            truncated: false,
        }
    }

    /// Writes `key`'s slot, allocating the table on first use.
    fn slot_mut(&mut self, key: usize) -> &mut Slot {
        if self.slots.is_empty() {
            self.slots = vec![EMPTY_SLOT; self.keys];
        }
        &mut self.slots[key]
    }

    fn mark(&mut self, key: usize) {
        let slot = &mut self.slots[key];
        if !slot.dirty {
            slot.dirty = true;
            self.improved.push(key as u32);
        }
    }

    /// Seeds `key` at this node: distance 0, no predecessor. Call from
    /// [`Program::init`]; the seed is announced by the next
    /// [`KeyedRelaxation::flush`].
    pub fn seed(&mut self, key: usize) {
        *self.slot_mut(key) = Slot {
            dist: 0,
            hops: 0,
            parent: NO_PARENT,
            dirty: false,
        };
        self.mark(key);
    }

    /// Absorbs one announcement from neighbor `from` across an edge of
    /// weight `w`: decodes the canonical message and relaxes the slot.
    /// Returns whether the slot improved; improvements are announced by
    /// the next [`KeyedRelaxation::flush`].
    pub fn absorb(&mut self, from: NodeId, w: Weight, msg: &Message) -> bool {
        let m = RelaxMsg::decode(self.tag, msg);
        let key = m.key as usize;
        debug_assert!(key < self.keys, "key {key} out of range {}", self.keys);
        let nd = m.dist.saturating_add(w);
        // Hop counts travel in the message: congestion may delay a
        // relaxation past round h without consuming hop budget.
        let nh = m.aux + 1;
        if nd > self.bound {
            return false;
        }
        let cur = self.slots.get(key).copied().unwrap_or(EMPTY_SLOT);
        if nd >= cur.dist {
            return false;
        }
        *self.slot_mut(key) = Slot {
            dist: nd,
            hops: nh,
            parent: from as u64,
            dirty: cur.dirty,
        };
        self.mark(key);
        if nh >= self.hop_bound {
            // The improvement arrived with an exhausted hop budget: the
            // next flush will not forward it, so the run may differ
            // from an unbounded one (see `truncated`).
            self.truncated = true;
        }
        true
    }

    /// Announces every key improved since the last flush to all
    /// neighbors — once per key, with the final improved state, in
    /// first-improvement order — and clears the improvement set. Keys
    /// whose hop budget is exhausted are not forwarded.
    pub fn flush(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.improved.len() {
            let key = self.improved[i] as usize;
            let slot = &mut self.slots[key];
            slot.dirty = false;
            let (dist, hops) = (slot.dist, slot.hops);
            if hops < self.hop_bound {
                ctx.send_all(
                    RelaxMsg {
                        key: key as u64,
                        dist,
                        aux: hops,
                    }
                    .encode(self.tag),
                );
            }
        }
        self.improved.clear();
    }

    /// The clause-7 combining key for this table's messages (delegate
    /// [`Program::combine_key`] here).
    pub fn combine_key(&self, msg: &Message) -> Option<Word> {
        debug_assert_eq!(unpack2(msg.word(0)).0, self.tag);
        Some(combine_key(msg))
    }

    /// The clause-7 merge for this table's messages (delegate
    /// [`Program::combine`] here): see [`combine_min`].
    pub fn combine(&self, queued: &Message, incoming: &Message) -> Message {
        combine_min(queued, incoming)
    }

    /// Finishes the table into its per-node output.
    pub fn finish(self) -> RelaxTable {
        RelaxTable {
            keys: self.keys,
            slots: self.slots,
            truncated: self.truncated,
        }
    }
}

/// A finished per-node relaxation table: dense slots over the key
/// space (empty when nothing reached this node — lazy allocation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelaxTable {
    keys: usize,
    slots: Vec<Slot>,
    /// Whether some accepted improvement at this node arrived with an
    /// exhausted hop budget. If **no** node of an unbounded-distance
    /// run reports this, the hop bound never blocked a relaxation and
    /// the distances are exactly the unbounded fixed point — the
    /// certificate behind the landmark SPT's adaptive cutoff.
    pub truncated: bool,
}

impl RelaxTable {
    /// Number of keys in the table's key space.
    pub fn keys(&self) -> usize {
        self.keys
    }

    /// The slot for `key`, if reached.
    pub fn get(&self, key: usize) -> Option<&Slot> {
        self.slots.get(key).filter(|s| s.reached())
    }

    /// Distance for `key`, if reached.
    pub fn dist(&self, key: usize) -> Option<Weight> {
        self.get(key).map(|s| s.dist)
    }

    /// Predecessor for `key` (`None` also when `key` is seeded here).
    pub fn parent(&self, key: usize) -> Option<NodeId> {
        self.get(key).and_then(Slot::parent)
    }

    /// Number of reached keys.
    pub fn reached_len(&self) -> usize {
        self.slots.iter().filter(|s| s.reached()).count()
    }

    /// Iterates the reached keys in ascending key order as
    /// `(key, dist, parent)`.
    pub fn iter_reached(&self) -> impl Iterator<Item = (usize, Weight, Option<NodeId>)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.reached())
            .map(|(k, s)| (k, s.dist, s.parent()))
    }

    /// The nearest reached key with its distance (ties broken towards
    /// the smaller key — deterministic).
    pub fn nearest(&self) -> Option<(usize, Weight)> {
        self.iter_reached()
            .map(|(k, d, _)| (d, k))
            .min()
            .map(|(d, k)| (k, d))
    }
}

/// The ready-made keyed-relaxation [`Program`]: seeds the given keys at
/// this node, absorbs announcements (edge weights resolved from
/// [`Ctx::neighbors`]), and re-announces per-round improvements. This
/// is multi-source distance/hop-bounded Bellman–Ford with per-key path
/// reporting; `dist_sssp::bellman` is a thin wrapper over it.
///
/// Activation-correct by construction (it acts only on inbox messages)
/// and declares the subsystem's lawful combiner.
#[derive(Debug)]
pub struct RelaxProgram {
    core: KeyedRelaxation,
    seeds: Vec<u32>,
    /// Incident edge weights sorted by neighbor id, built lazily on the
    /// first delivery so unreached nodes allocate nothing: resolving a
    /// sender's weight is a binary search, not an `O(deg)` scan per
    /// message on the subsystem's hottest path.
    weights: Vec<(NodeId, Weight)>,
}

impl RelaxProgram {
    /// A program over `keys` keys, seeding `seeds` at this node.
    pub fn new(tag: u64, keys: usize, bound: Weight, hop_bound: u64, seeds: Vec<u32>) -> Self {
        RelaxProgram {
            core: KeyedRelaxation::new(tag, keys, bound, hop_bound),
            seeds,
            weights: Vec::new(),
        }
    }
}

impl Program for RelaxProgram {
    type Output = RelaxTable;

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.seeds.len() {
            let key = self.seeds[i] as usize;
            self.core.seed(key);
        }
        self.core.flush(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_>, inbox: &[(NodeId, Message)]) {
        if self.weights.is_empty() && !inbox.is_empty() {
            self.weights = ctx.neighbors().iter().map(|&(u, w, _)| (u, w)).collect();
            self.weights.sort_unstable();
        }
        for (from, msg) in inbox {
            let slot = self
                .weights
                .binary_search_by_key(from, |&(u, _)| u)
                .expect("sender is a neighbor");
            let w = self.weights[slot].1;
            self.core.absorb(*from, w, msg);
        }
        self.core.flush(ctx);
    }

    fn combine_key(&self, msg: &Message) -> Option<Word> {
        self.core.combine_key(msg)
    }

    fn combine(&self, queued: &Message, incoming: &Message) -> Message {
        self.core.combine(queued, incoming)
    }

    fn finish(self) -> RelaxTable {
        self.core.finish()
    }
}

/// Largest finite entry of a distance vector, 0 if none — the shared
/// headline-metric kernel behind `max_finite_dist` accessors.
///
/// "Finite" means strictly below [`INF`]: entries at or above `INF`
/// (unreached slots, and pessimistic `INF.saturating_add(w)` sums that
/// overflow past it) are ignored. On an all-unreachable table this
/// deliberately returns 0 — the same value as a table whose only
/// reached vertex is the source itself — so callers that must
/// distinguish "nothing reached" should test reachability explicitly
/// rather than compare against 0.
pub fn max_finite(dist: &[Weight]) -> Weight {
    dist.iter().copied().filter(|&d| d < INF).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use lightgraph::{generators, Graph};

    #[test]
    fn codec_roundtrips() {
        let m = RelaxMsg {
            key: 17,
            dist: 123,
            aux: 9,
        };
        let msg = m.encode(21);
        assert_eq!(msg.len(), 3);
        assert_eq!(RelaxMsg::decode(21, &msg), m);
        assert_eq!(combine_key(&msg), pack2(21, 17));
    }

    #[test]
    fn combine_min_is_componentwise() {
        let a = RelaxMsg {
            key: 3,
            dist: 10,
            aux: 7,
        }
        .encode(5);
        let b = RelaxMsg {
            key: 3,
            dist: 12,
            aux: 2,
        }
        .encode(5);
        let m = combine_min(&a, &b);
        assert_eq!(
            RelaxMsg::decode(5, &m),
            RelaxMsg {
                key: 3,
                dist: 10,
                aux: 2
            }
        );
        // commutative
        assert_eq!(combine_min(&b, &a), m);
    }

    #[test]
    fn single_source_matches_dijkstra() {
        for seed in 0..3 {
            let g = generators::erdos_renyi(40, 0.15, 30, seed);
            let mut sim = Simulator::new(&g);
            let (out, _) = sim.run(|v, _| {
                RelaxProgram::new(7, 1, INF, u64::MAX, if v == 0 { vec![0] } else { vec![] })
            });
            let oracle = lightgraph::dijkstra::shortest_paths(&g, 0);
            for v in 0..g.n() {
                assert_eq!(out[v].dist(0), Some(oracle.dist[v]), "v={v}");
            }
            assert!(
                out.iter().all(|t| !t.truncated),
                "unbounded ⇒ no truncation"
            );
        }
    }

    #[test]
    fn distance_bound_gates_reach() {
        let g = generators::path(6, 10);
        let mut sim = Simulator::new(&g);
        let (out, _) = sim.run(|v, _| {
            RelaxProgram::new(7, 1, 25, u64::MAX, if v == 0 { vec![0] } else { vec![] })
        });
        assert_eq!(out[2].dist(0), Some(20));
        assert_eq!(out[3].dist(0), None, "30 > bound");
        assert!(out[3].get(0).is_none());
    }

    #[test]
    fn hop_bound_truncation_is_flagged_exactly_when_it_bites() {
        let g = generators::path(8, 1);
        // hop bound 3 cuts the wave mid-path: flagged.
        let mut sim = Simulator::new(&g);
        let (out, _) =
            sim.run(|v, _| RelaxProgram::new(7, 1, INF, 3, if v == 0 { vec![0] } else { vec![] }));
        assert_eq!(out[3].dist(0), Some(3));
        assert_eq!(out[4].dist(0), None, "4 hops exceeds the bound");
        assert!(out.iter().any(|t| t.truncated), "the bound visibly bit");
        // hop bound 10 > path length: unbounded behavior, no flag.
        let mut sim = Simulator::new(&g);
        let (out, _) =
            sim.run(|v, _| RelaxProgram::new(7, 1, INF, 10, if v == 0 { vec![0] } else { vec![] }));
        assert_eq!(out[7].dist(0), Some(7));
        assert!(out.iter().all(|t| !t.truncated));
    }

    #[test]
    fn multi_key_tables_are_dense_and_lazy() {
        let g = generators::path(5, 10);
        let mut sim = Simulator::new(&g);
        // Sources at ends, bound keeps the middle unreached by key 1.
        let (out, _) = sim.run(|v, _| {
            let seeds = match v {
                0 => vec![0],
                4 => vec![1],
                _ => vec![],
            };
            RelaxProgram::new(7, 2, 15, u64::MAX, seeds)
        });
        assert_eq!(out[1].dist(0), Some(10));
        assert_eq!(out[1].dist(1), None, "30 > bound");
        assert_eq!(out[1].nearest(), Some((0, 10)));
        assert_eq!(out[1].parent(0), Some(0));
        assert_eq!(out[0].parent(0), None, "seeds have no parent");
        assert_eq!(out[2].reached_len(), 0, "middle unreached");
        assert_eq!(
            out[4].iter_reached().collect::<Vec<_>>(),
            vec![(1, 0, None)],
        );
    }

    #[test]
    fn announcements_batch_per_round() {
        // Star center receives two improving announcements for the same
        // key in one round (from two leaves seeded at different
        // distances via edge weights) and must re-announce only once.
        let g = Graph::from_edges(4, [(0, 1, 5), (0, 2, 1), (0, 3, 50)]).unwrap();
        let mut sim = Simulator::new(&g);
        let (out, stats) = sim.run(|v, _| {
            let seeds = if v == 1 || v == 2 { vec![0] } else { vec![] };
            RelaxProgram::new(7, 1, INF, u64::MAX, seeds)
        });
        assert_eq!(out[0].dist(0), Some(1));
        assert_eq!(out[3].dist(0), Some(51));
        // init: 1 and 2 announce (1 msg each); round 1: the center
        // improves twice but announces once to each of its 3 neighbors
        // (batched); round 2: nodes 1 and 2 reject, node 3 improves and
        // echoes once back to the center (rejected there).
        assert_eq!(stats.messages, 2 + 3 + 1, "center announced once, batched");
    }

    #[test]
    fn max_finite_handles_all_unreachable_and_overflowed_entries() {
        assert_eq!(max_finite(&[]), 0);
        assert_eq!(max_finite(&[INF, INF]), 0, "all-unreachable table");
        assert_eq!(max_finite(&[3, INF, 7]), 7);
        // Pessimistic sums past INF are not genuine distances.
        assert_eq!(max_finite(&[5, INF.saturating_add(40)]), 5);
    }
}
