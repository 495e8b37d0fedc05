//! A small string interner.
//!
//! Maps strings to dense `u32`-backed ids and back. Used for resource
//! names, class names, property names and literal values. Lookup keys are
//! the *raw* strings; label normalization (case folding etc.) is the
//! responsibility of [`crate::label_index`].

use std::collections::HashMap;
use std::sync::Arc;

/// A string interner handing out dense indexes.
///
/// Generic over the id type only through `usize` indexes; the typed wrappers
/// in [`crate::ids`] convert at the call sites.
///
/// Each distinct term owns exactly one heap allocation: the arena `Vec` and
/// the reverse-lookup map share it through an `Arc<str>`. At Yago scale
/// (hundreds of thousands of labels) storing every term twice — which a
/// naive `Box<str>` arena plus `Box<str>`-keyed map does — doubles resident
/// label memory for no benefit.
///
/// A finalized store's interners are frozen: the terms interned while
/// building sit behind an `Arc` that every clone of the store shares, and
/// terms interned later (enrichment) go to a small per-clone part,
/// numbered after the frozen ones.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// The terms frozen at finalize, shared by every clone.
    base: Arc<Terms>,
    /// Terms interned since, numbered from the base's length.
    added: Terms,
}

/// One part of an [`Interner`]: terms in index order plus the reverse
/// lookup, sharing one allocation per term.
#[derive(Debug, Default, Clone)]
struct Terms {
    strings: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, usize>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its dense index. Re-interning an existing
    /// string returns the original index.
    pub fn intern(&mut self, s: &str) -> usize {
        if let Some(i) = self.get(s) {
            return i;
        }
        let i = self.len();
        let shared: Arc<str> = Arc::from(s);
        self.added.strings.push(Arc::clone(&shared));
        self.added.lookup.insert(shared, i);
        i
    }

    /// The index of `s` if it has been interned.
    pub fn get(&self, s: &str) -> Option<usize> {
        self.base
            .lookup
            .get(s)
            .or_else(|| self.added.lookup.get(s))
            .copied()
    }

    /// The string behind index `i`.
    ///
    /// # Panics
    /// Panics if `i` was not handed out by this interner.
    pub fn resolve(&self, i: usize) -> &str {
        match i.checked_sub(self.base.strings.len()) {
            None => &self.base.strings[i],
            Some(j) => &self.added.strings[j],
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.base.strings.len() + self.added.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(index, string)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        self.base
            .strings
            .iter()
            .chain(&self.added.strings)
            .enumerate()
            .map(|(i, s)| (i, &**s))
    }

    /// Total bytes of string payload held, counting each term's allocation
    /// once regardless of how many internal views share it.
    pub fn string_heap_bytes(&self) -> usize {
        self.iter().map(|(_, s)| s.len()).sum()
    }

    /// Freeze a builder's interner: every term interned so far moves
    /// (uncopied) behind the shared `Arc`. The base must still be empty.
    pub(crate) fn freeze(self) -> Self {
        debug_assert!(self.base.strings.is_empty(), "an interner freezes once");
        Interner {
            base: Arc::new(self.added),
            added: Terms::default(),
        }
    }

    #[cfg(test)]
    pub(crate) fn shares_base(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut it = Interner::new();
        let a = it.intern("Italy");
        let b = it.intern("Italy");
        assert_eq!(a, b);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let mut it = Interner::new();
        let a = it.intern("Italy");
        let b = it.intern("italy"); // raw comparison: case matters here
        assert_ne!(a, b);
        assert_eq!(it.resolve(a), "Italy");
        assert_eq!(it.resolve(b), "italy");
    }

    #[test]
    fn get_without_intern() {
        let mut it = Interner::new();
        assert_eq!(it.get("Rome"), None);
        let i = it.intern("Rome");
        assert_eq!(it.get("Rome"), Some(i));
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut it = Interner::new();
        it.intern("a");
        it.intern("b");
        it.intern("c");
        let collected: Vec<&str> = it.iter().map(|(_, s)| s).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_interner() {
        let it = Interner::new();
        assert!(it.is_empty());
        assert_eq!(it.len(), 0);
    }

    #[test]
    fn each_term_is_stored_once() {
        // Memory accounting: the arena slot and the map key must share one
        // allocation (strong count exactly 2), and the payload accounting
        // must equal the sum of distinct term lengths — not double it.
        let mut it = Interner::new();
        let terms = ["Italy", "Rome", "a much longer borrowed label"];
        for t in terms {
            it.intern(t);
            it.intern(t); // re-intern must not clone a second copy
        }
        for (i, term) in it.added.strings.iter().enumerate() {
            assert_eq!(
                Arc::strong_count(term),
                2,
                "term {i} must be shared by exactly the arena and the map"
            );
        }
        let distinct: usize = terms.iter().map(|t| t.len()).sum();
        assert_eq!(it.string_heap_bytes(), distinct);
    }

    #[test]
    fn clone_shares_no_extra_payload_copies() {
        // Cloning the interner bumps refcounts instead of copying bytes;
        // the per-term payload accounting stays flat.
        let mut it = Interner::new();
        it.intern("Italy");
        let cloned = it.clone();
        assert_eq!(cloned.string_heap_bytes(), it.string_heap_bytes());
        assert_eq!(Arc::strong_count(&it.added.strings[0]), 4);
    }

    #[test]
    fn frozen_terms_are_shared_and_later_ones_numbered_after_them() {
        let mut it = Interner::new();
        it.intern("Italy");
        it.intern("Rome");
        let frozen = it.freeze();
        let mut a = frozen.clone();
        let mut b = frozen.clone();
        assert!(a.shares_base(&frozen) && b.shares_base(&frozen));
        // Each clone numbers its own terms after the frozen ones, and
        // neither sees the other's.
        assert_eq!(a.intern("Rome"), 1);
        assert_eq!(a.intern("Milan"), 2);
        assert_eq!(b.intern("Oslo"), 2);
        assert_eq!(a.get("Oslo"), None);
        assert_eq!(frozen.get("Milan"), None);
        assert_eq!(a.resolve(2), "Milan");
        assert_eq!(b.resolve(2), "Oslo");
        let all: Vec<&str> = a.iter().map(|(_, s)| s).collect();
        assert_eq!(all, vec!["Italy", "Rome", "Milan"]);
        assert_eq!(a.len(), 3);
        assert_eq!(frozen.len(), 2);
        assert!(a.shares_base(&frozen), "interning never copies the base");
    }
}
