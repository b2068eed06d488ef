//! Messages: `O(log n)`-bit payloads, at most a constant number of words.
//!
//! # Memory layout
//!
//! [`Message`] is a fixed-width **inline** value: a length plus a
//! `[Word; WORDS_PER_MESSAGE]` payload array, stored directly in the
//! struct with no heap indirection. Constructing, cloning, queueing, and
//! delivering a message is a plain copy — the zero-allocation data path
//! both engines rely on (see `DESIGN.md`, "Memory layout & the
//! zero-alloc data path"). The length is a [`NonZeroU8`]: empty payloads
//! are rejected anyway, and the zero niche keeps `Option<Message>` as
//! small as `Message` (40 bytes). "CONGEST with larger messages" is the
//! executors' per-edge cap
//! ([`Executor::set_cap`](crate::Executor::set_cap)), not wider payloads.

use std::num::NonZeroU8;

/// One machine word of `O(log n)` bits (§2: "we assume a word size is
/// log n bits"). Node ids, edge weights, and tour times all fit in one
/// word on the instances we simulate.
pub type Word = u64;

/// Maximum number of words per message. The paper's messages carry `O(1)`
/// words (e.g. an id plus a distance); four words accommodate every
/// message in this repository while keeping the `O(log n)` spirit.
pub const WORDS_PER_MESSAGE: usize = 4;

/// A CONGEST message: between 1 and [`WORDS_PER_MESSAGE`] words, stored
/// inline (no heap allocation; cloning is a fixed-size copy).
///
/// Every word past `len` is zero, so the derived `PartialEq`/`Eq`/`Hash`
/// see exactly the payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Message {
    len: NonZeroU8,
    words: [Word; WORDS_PER_MESSAGE],
}

impl Message {
    /// Creates a message from the given words.
    ///
    /// # Panics
    /// Panics if `words` is empty or longer than [`WORDS_PER_MESSAGE`] —
    /// that would violate the CONGEST bandwidth bound, so it is a
    /// programming error, not a recoverable condition.
    pub fn words(words: &[Word]) -> Self {
        assert!(
            !words.is_empty() && words.len() <= WORDS_PER_MESSAGE,
            "CONGEST message must have 1..={WORDS_PER_MESSAGE} words, got {}",
            words.len()
        );
        let mut inline = [0; WORDS_PER_MESSAGE];
        inline[..words.len()].copy_from_slice(words);
        Message {
            len: NonZeroU8::new(words.len() as u8).expect("checked above"),
            words: inline,
        }
    }

    /// The payload words.
    pub fn as_words(&self) -> &[Word] {
        &self.words[..self.len()]
    }

    /// The `i`-th payload word.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn word(&self, i: usize) -> Word {
        self.as_words()[i]
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.len.get() as usize
    }

    /// Whether the message has no words. [`Message::words`] rejects
    /// empty payloads, so this is `false` for every constructed
    /// message; it exists so `len` comes with the conventional pair.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Packs two 32-bit values into one word (ids are `< 2^32` on every
/// instance we simulate; the constructor checks).
///
/// # Panics
/// Panics if either value does not fit in 32 bits.
pub fn pack2(hi: u64, lo: u64) -> Word {
    assert!(
        hi < (1 << 32) && lo < (1 << 32),
        "pack2 operands must fit in 32 bits"
    );
    (hi << 32) | lo
}

/// Inverse of [`pack2`].
pub fn unpack2(w: Word) -> (u64, u64) {
    (w >> 32, w & 0xffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_words() {
        let m = Message::words(&[1, 2, 3]);
        assert_eq!(m.as_words(), &[1, 2, 3]);
        assert_eq!(m.word(1), 2);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic]
    fn rejects_oversized_message() {
        let _ = Message::words(&[0; WORDS_PER_MESSAGE + 1]);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_message() {
        let _ = Message::words(&[]);
    }

    #[test]
    fn equality_ignores_padding_words() {
        // Messages of equal content but different construction paths
        // must compare (and hash) equal: the inline tail is canonical.
        let a = Message::words(&[9]);
        let b = Message::words(&[9, 1]);
        assert_ne!(a, b);
        assert_eq!(a, Message::words(&[9, 1][..1]));
        assert_ne!(a, Message::words(&[9, 0]), "the length counts");
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let digest = |m: &Message| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&Message::words(&[9, 1][..1])));
    }

    #[test]
    fn option_message_costs_no_extra_space() {
        // The `NonZeroU8` length's niche encodes `None`.
        assert_eq!(std::mem::size_of::<Message>(), 40);
        assert_eq!(std::mem::size_of::<Option<Message>>(), 40);
    }

    #[test]
    fn pack_unpack() {
        let w = pack2(0xdead, 0xbeef);
        assert_eq!(unpack2(w), (0xdead, 0xbeef));
    }

    #[test]
    #[should_panic]
    fn pack_rejects_wide_values() {
        let _ = pack2(1 << 33, 0);
    }
}
