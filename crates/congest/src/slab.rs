//! Arena-slab queue storage shared by both engines
//! (determinism-contract clauses 3 and 7 in [`crate::exec`]).
//!
//! Like [`for_each_active`](crate::exec::for_each_active) for the
//! activation contract, this is the *single* implementation of the
//! per-directed-edge FIFO and combining semantics: the sequential
//! [`Simulator`](crate::Simulator) and the parallel engine both stage
//! and pop through [`Slab`], so the merge rules (which message absorbs
//! which, and where the survivor sits in the FIFO) cannot drift between
//! the oracle and an engine.
//!
//! # Layout
//!
//! One [`Slab`] is a pool of linked-list entries with an intrusive free
//! list; each directed edge owns a tiny [`EdgeQueue`] header (head,
//! tail, length — slot indices into the owning slab) stored in a flat
//! per-graph array. Staging a message writes it into a recycled slot
//! and links it at the edge's tail; popping unlinks the head and
//! returns the slot to the free list. After warm-up no path allocates:
//! the entry pool, the free list, and the combiner index all reach a
//! high-water capacity and are **recycled across rounds and runs**
//! (quiescence guarantees every queue drains, so a finished run leaves
//! the whole pool on the free list). Slabs are run-scoped storage owned
//! by one executor and never shared: a sub-executor starts with empty
//! slabs of its own.
//!
//! The parallel engine keys one slab per *(sender shard, receiver
//! shard)* cell, mirroring its `touched` buckets: the compute phase
//! writes only rows of the cell matrix (every staged edge has its
//! sender in the claiming shard) and the deliver phase drains only
//! columns, with a barrier in between, so cell access is disjoint
//! across workers without locks. The sequential simulator is the
//! one-shard special case: a single slab for all edges.
//!
//! # Combining (clause 7)
//!
//! A staged message carrying `Some(key)` merges into the queued,
//! undelivered message with the same key on the same edge, if one
//! exists — the merged message **keeps the earlier message's queue
//! position**, so it is delivered no later than the message it grew
//! from. At most one entry per `(directed edge, key)` is ever queued.
//! Messages staged with `None` (no combiner, or an uncombinable
//! payload) always append.
//!
//! The key→slot index is a `std` [`HashMap`] from `(directed edge,
//! key)` to the slab slot: a keyed staging hashes once (a hit merges
//! in place), a keyed pop once more. [`HashMap::new`] allocates
//! nothing, so unkeyed programs never pay for it; removals keep
//! capacity, so a warmed slab stays allocation-free; iteration order
//! is never read, so the hasher's random seed cannot reach any output.

use crate::message::Word;
use std::collections::{hash_map, HashMap};

/// Sentinel slot index: "no entry".
const NIL: u32 = u32::MAX;

/// Per-directed-edge FIFO header: slot indices into the owning
/// [`Slab`]. 12 bytes, stored in a flat per-graph array indexed by
/// directed edge id — the only per-edge state of the data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeQueue {
    head: u32,
    tail: u32,
    len: u32,
}

impl EdgeQueue {
    /// An empty queue header.
    pub const EMPTY: EdgeQueue = EdgeQueue {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    /// Number of queued (undelivered) entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no entry is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for EdgeQueue {
    fn default() -> Self {
        EdgeQueue::EMPTY
    }
}

/// One pooled queue entry. `item` is `None` exactly while the slot sits
/// on the free list (`next` then links the free list instead of a
/// FIFO).
#[derive(Debug)]
struct Entry<T> {
    next: u32,
    key: Option<Word>,
    item: Option<T>,
}

/// An arena of FIFO entries with per-key in-place merging, serving many
/// directed-edge queues. The payload `T` is engine-specific (the
/// simulator queues messages with validation baggage, the parallel
/// engine queues plain messages); the slot, free-list, and key
/// bookkeeping are shared. See the module docs for the layout and the
/// recycling discipline.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Head of the intrusive free list threaded through `entries`.
    free: u32,
    /// `(directed edge, key)` → occupied slot, for clause-7 merges.
    index: HashMap<(usize, Word), u32>,
}

impl<T> Slab<T> {
    /// Creates an empty slab (no allocation until the first staging).
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: NIL,
            index: HashMap::new(),
        }
    }

    /// Number of live (queued, undelivered) entries across all queues
    /// served by this slab.
    pub fn live(&self) -> usize {
        let mut free = 0usize;
        let mut slot = self.free;
        while slot != NIL {
            free += 1;
            slot = self.entries[slot as usize].next;
        }
        self.entries.len() - free
    }

    /// Stages one message on queue `q` of directed edge `d`. If `key`
    /// is `Some` and an entry with the same key is queued on `d`,
    /// `merge(queued, item)` updates that entry in place (keeping its
    /// queue position) and `true` is returned — the staged message was
    /// absorbed. Otherwise the item is appended and `false` is
    /// returned.
    ///
    /// `d` must be the id whose header `q` is — the pairing is the
    /// caller's (both engines key headers by directed edge id).
    pub fn stage(
        &mut self,
        q: &mut EdgeQueue,
        d: usize,
        key: Option<Word>,
        item: T,
        merge: impl FnOnce(&mut T, T),
    ) -> bool {
        // One hash per keyed staging: a hit merges, a miss keeps the
        // vacant index entry for the slot taken below.
        let vacancy = match key.map(|k| self.index.entry((d, k))) {
            Some(hash_map::Entry::Occupied(hit)) => {
                let entry = &mut self.entries[*hit.get() as usize];
                debug_assert_eq!(entry.key, key, "index points at a same-key entry");
                merge(entry.item.as_mut().expect("indexed slot is occupied"), item);
                return true;
            }
            Some(hash_map::Entry::Vacant(vacancy)) => Some(vacancy),
            None => None,
        };
        let slot = if self.free != NIL {
            let slot = self.free;
            let entry = &mut self.entries[slot as usize];
            self.free = entry.next;
            entry.next = NIL;
            entry.key = key;
            entry.item = Some(item);
            slot
        } else {
            assert!(self.entries.len() < NIL as usize, "slab full");
            let slot = self.entries.len() as u32;
            self.entries.push(Entry {
                next: NIL,
                key,
                item: Some(item),
            });
            slot
        };
        if let Some(vacancy) = vacancy {
            vacancy.insert(slot);
        }
        if q.len == 0 {
            q.head = slot;
        } else {
            self.entries[q.tail as usize].next = slot;
        }
        q.tail = slot;
        q.len += 1;
        false
    }

    /// Pops the front entry of queue `q` (directed edge `d`), releasing
    /// its key for future stagings and its slot to the free list.
    pub fn pop(&mut self, q: &mut EdgeQueue, d: usize) -> Option<(Option<Word>, T)> {
        if q.len == 0 {
            return None;
        }
        let slot = q.head;
        let entry = &mut self.entries[slot as usize];
        let key = entry.key;
        let item = entry.item.take().expect("queued slot is occupied");
        q.head = entry.next;
        q.len -= 1;
        if q.len == 0 {
            q.head = NIL;
            q.tail = NIL;
        }
        entry.next = self.free;
        self.free = slot;
        if let Some(k) = key {
            let removed = self.index.remove(&(d, k));
            debug_assert!(removed.is_some(), "popped key must be indexed");
        }
        Some((key, item))
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convenience for the semantics tests: one slab, one queue.
    fn one() -> (Slab<u64>, EdgeQueue) {
        (Slab::new(), EdgeQueue::EMPTY)
    }

    #[test]
    fn unkeyed_entries_form_a_plain_fifo() {
        let (mut s, mut q) = one();
        assert!(!s.stage(&mut q, 0, None, 1, |_, _| unreachable!()));
        assert!(!s.stage(&mut q, 0, None, 2, |_, _| unreachable!()));
        assert_eq!(q.len(), 2);
        assert_eq!(s.pop(&mut q, 0), Some((None, 1)));
        assert_eq!(s.pop(&mut q, 0), Some((None, 2)));
        assert_eq!(s.pop(&mut q, 0), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_key_merges_in_place_keeping_position() {
        let (mut s, mut q) = one();
        assert!(!s.stage(&mut q, 0, Some(7), 10, |_, _| unreachable!()));
        assert!(!s.stage(&mut q, 0, None, 99, |_, _| unreachable!()));
        assert!(s.stage(&mut q, 0, Some(7), 3, |old, new| *old = (*old).min(new)));
        assert_eq!(q.len(), 2, "merge adds no entry");
        assert_eq!(s.pop(&mut q, 0), Some((Some(7), 3)), "survivor kept slot 0");
        assert_eq!(s.pop(&mut q, 0), Some((None, 99)));
    }

    #[test]
    fn popped_key_can_be_staged_again() {
        let (mut s, mut q) = one();
        s.stage(&mut q, 0, Some(1), 5, |_, _| unreachable!());
        assert_eq!(s.pop(&mut q, 0), Some((Some(1), 5)));
        assert!(
            !s.stage(&mut q, 0, Some(1), 6, |_, _| unreachable!()),
            "fresh entry"
        );
        assert!(s.stage(&mut q, 0, Some(1), 2, |old, new| *old = (*old).min(new)));
        assert_eq!(s.pop(&mut q, 0), Some((Some(1), 2)));
    }

    #[test]
    fn distinct_keys_never_merge() {
        let (mut s, mut q) = one();
        assert!(!s.stage(&mut q, 0, Some(1), 5, |_, _| unreachable!()));
        assert!(!s.stage(&mut q, 0, Some(2), 6, |_, _| unreachable!()));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn merge_targets_mid_queue_slots_after_pops() {
        let (mut s, mut q) = one();
        s.stage(&mut q, 0, None, 0, |_, _| unreachable!());
        s.stage(&mut q, 0, None, 1, |_, _| unreachable!());
        s.stage(&mut q, 0, Some(9), 40, |_, _| unreachable!());
        s.pop(&mut q, 0);
        // Key 9 now sits mid-queue; the merge must find its slot.
        assert!(s.stage(&mut q, 0, Some(9), 30, |old, new| *old = (*old).min(new)));
        assert_eq!(s.pop(&mut q, 0), Some((None, 1)));
        assert_eq!(s.pop(&mut q, 0), Some((Some(9), 30)));
    }

    #[test]
    fn same_key_on_distinct_edges_never_merges() {
        // The combiner index is keyed by (edge, key), not key alone.
        let mut s = Slab::new();
        let mut q0 = EdgeQueue::EMPTY;
        let mut q1 = EdgeQueue::EMPTY;
        assert!(!s.stage(&mut q0, 0, Some(7), 10u64, |_, _| unreachable!()));
        assert!(!s.stage(&mut q1, 1, Some(7), 20, |_, _| unreachable!()));
        assert_eq!(s.pop(&mut q0, 0), Some((Some(7), 10)));
        assert_eq!(s.pop(&mut q1, 1), Some((Some(7), 20)));
    }

    #[test]
    fn slots_are_recycled_across_drains() {
        // Fill, drain, refill: the second wave reuses the first wave's
        // slots, so the entry pool never grows past the high-water mark.
        let (mut s, mut q) = one();
        for wave in 0..5u64 {
            for i in 0..100 {
                s.stage(&mut q, 0, Some(i), wave * 1000 + i, |_, _| unreachable!());
            }
            for _ in 0..100 {
                s.pop(&mut q, 0).unwrap();
            }
            assert_eq!(s.live(), 0, "wave {wave} drained");
            assert_eq!(s.entries.len(), 100, "pool stays at the high-water mark");
        }
    }

    /// Differential test of the whole slab (FIFO + combiner index +
    /// free list) against a straightforward model, over a seeded random
    /// schedule of stagings and pops across many edges.
    #[test]
    fn random_schedule_matches_a_naive_model() {
        use std::collections::VecDeque;
        const EDGES: usize = 13;
        let mut s: Slab<u64> = Slab::new();
        let mut qs = [EdgeQueue::EMPTY; EDGES];
        let mut model: Vec<VecDeque<(Option<Word>, u64)>> = vec![VecDeque::new(); EDGES];
        let mut rng: u64 = 0x5eed;
        let mut next = || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        for step in 0..20_000u64 {
            let d = (next() % EDGES as u64) as usize;
            if next() % 3 == 0 {
                let got = s.pop(&mut qs[d], d);
                assert_eq!(got, model[d].pop_front(), "pop on edge {d} step {step}");
            } else {
                let key = (next() % 2 == 0).then(|| next() % 8);
                let item = next();
                let merged = s.stage(&mut qs[d], d, key, item, |old, new| *old = (*old).min(new));
                let model_slot =
                    key.and_then(|k| model[d].iter_mut().find(|(mk, _)| *mk == Some(k)));
                match model_slot {
                    Some((_, old)) => {
                        assert!(merged, "stage on edge {d} step {step}");
                        *old = (*old).min(item);
                    }
                    None => {
                        assert!(!merged, "stage on edge {d} step {step}");
                        model[d].push_back((key, item));
                    }
                }
            }
            assert_eq!(qs[d].len(), model[d].len(), "len on edge {d} step {step}");
        }
        let live: usize = model.iter().map(VecDeque::len).sum();
        assert_eq!(s.live(), live, "live count matches the model at the end");
    }
}
