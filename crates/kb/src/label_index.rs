//! Label lookup: exact (normalized) and approximate (n-gram index).
//!
//! This is the Lucene/LARQ stand-in. All labels are stored normalized (see
//! [`crate::sim::normalize`]). Exact lookup is a hash probe; approximate
//! lookup collects candidate labels sharing character trigrams with the
//! query and scores them with the hybrid similarity of [`crate::sim`],
//! returning those at or above the threshold (the paper uses 0.7).
//!
//! The fuzzy search returns exactly what scoring every prefiltered label
//! with [`sim::similarity`] would, at a fraction of the work:
//!
//! * the normalized labels live in one packed arena, with per-slot end
//!   offsets, char counts and distinct-trigram counts;
//! * shared trigrams are counted in a dense per-lookup vector indexed by
//!   slot. A slot sits once in the posting list of each of its distinct
//!   grams, so its count *is* `|Q ∩ L|`, and the Jaccard arm follows from
//!   the two set sizes without touching the label;
//! * the count also bounds the OSA distance from below (one edit kills at
//!   most four padded windows), which caps the Levenshtein arm. When that
//!   cap cannot beat the Jaccard arm or reach the threshold, the label's
//!   score is settled without computing a distance;
//! * the remaining labels get an exact distance from the bit-vector
//!   kernel ([`sim::OsaPattern`]), whose masks are built once per query.
//!
//! Like the parser modules, this module denies `clippy::unwrap_used`:
//! lookups run on arbitrary user strings and must never panic — in
//! particular, float sorts use `total_cmp` so a NaN similarity score can
//! neither panic nor scramble the ranking.

#![deny(clippy::unwrap_used)]

use std::collections::HashMap;
use std::ops::AddAssign;
use std::sync::Arc;

use crate::ids::ResourceId;
use crate::sim;

/// One approximate-lookup hit.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelMatch {
    /// The matched resource.
    pub resource: ResourceId,
    /// Similarity of the query to this resource's label, in `[0, 1]`.
    pub score: f64,
}

/// The work one or more fuzzy label searches did. Every count is a pure
/// function of the index and the queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelSearchStats {
    /// Queries that missed the exact index and were searched fuzzily.
    pub fuzzy_lookups: u64,
    /// Posting-list entries read while counting shared trigrams.
    pub postings_scanned: u64,
    /// Labels whose OSA distance was computed: those the prefilter kept
    /// and the score bound could not settle.
    pub candidates_scored: u64,
}

impl AddAssign for LabelSearchStats {
    fn add_assign(&mut self, other: Self) {
        self.fuzzy_lookups += other.fuzzy_lookups;
        self.postings_scanned += other.postings_scanned;
        self.candidates_scored += other.candidates_scored;
    }
}

/// Where one slot's normalized label sits in the arena, and its sizes.
#[derive(Debug, Clone, Copy)]
struct SlotLabel {
    /// Byte offset one past the label's end; it starts where the previous
    /// slot's label ends.
    end: usize,
    /// Length in chars.
    chars: usize,
    /// Number of distinct padded trigrams.
    grams: usize,
}

/// An inverted index from labels to resources.
///
/// A finalized store's index is frozen: the labels inserted while building
/// sit behind an `Arc` that every clone shares. Labels first inserted
/// later (enrichment) get slots numbered after the base's in a small
/// per-clone part, whose posting lists are scanned after the base's, and a
/// new homonym of a base label shadows that slot's resource list. Slot
/// order, and with it every tie-break and score, is what an index built
/// with all the labels from scratch would have.
#[derive(Debug, Default, Clone)]
pub struct LabelIndex {
    /// The slots frozen at finalize, shared by every clone.
    base: Arc<Slots>,
    /// Slots for labels first inserted since, numbered from the base's
    /// length.
    added: Slots,
    /// Base slots that gained a resource since: the slot's full resource
    /// list, sorted by slot. A present entry replaces the base's list.
    shadowed: Vec<(u32, Vec<ResourceId>)>,
}

/// One part of a [`LabelIndex`]: a run of consecutively numbered slots.
#[derive(Debug, Default, Clone)]
struct Slots {
    /// The number of this part's first slot.
    first: u32,
    /// Per slot, every resource carrying that slot's label (homonyms:
    /// `Rossi` the player and `Rossi` the racer).
    resources: Vec<Vec<ResourceId>>,
    /// The distinct normalized labels, concatenated in slot order.
    arena: String,
    /// Per slot, its label's place in `arena` and its sizes.
    labels: Vec<SlotLabel>,
    slot_of: HashMap<String, u32>,
    /// trigram -> slots containing it, ascending.
    grams: HashMap<[char; 3], Vec<u32>>,
}

impl Slots {
    /// Open a slot for `norm`, which no slot of the index holds yet.
    fn push(&mut self, norm: String) -> u32 {
        let s = self.first + u32::try_from(self.labels.len()).expect("label slots exhausted");
        let grams = sim::sorted_trigrams(&norm);
        for &g in &grams {
            self.grams.entry(g).or_default().push(s);
        }
        self.arena.push_str(&norm);
        self.labels.push(SlotLabel {
            end: self.arena.len(),
            chars: norm.chars().count(),
            grams: grams.len(),
        });
        self.resources.push(Vec::new());
        self.slot_of.insert(norm, s);
        s
    }

    /// The normalized label of this part's `i`-th slot.
    fn label(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |prev| self.labels[prev].end);
        &self.arena[start..self.labels[i].end]
    }
}

impl LabelIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.base.labels.len() + self.added.labels.len()
    }

    /// True if no label has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Associate `label` (raw; normalized internally) with `resource`.
    pub fn insert(&mut self, label: &str, resource: ResourceId) {
        let norm = sim::normalize(label);
        let resources = if let Some(&s) = self.base.slot_of.get(&norm) {
            let k = match self.shadowed.binary_search_by_key(&s, |&(slot, _)| slot) {
                Ok(k) => k,
                Err(k) => {
                    let base = &self.base.resources[s as usize];
                    if base.contains(&resource) {
                        return;
                    }
                    self.shadowed.insert(k, (s, base.clone()));
                    k
                }
            };
            &mut self.shadowed[k].1
        } else {
            let s = match self.added.slot_of.get(&norm) {
                Some(&s) => s,
                None => self.added.push(norm),
            };
            &mut self.added.resources[(s - self.added.first) as usize]
        };
        if !resources.contains(&resource) {
            resources.push(resource);
        }
    }

    /// Freeze a builder's index: every slot so far moves (uncopied) behind
    /// the shared `Arc`. The base must still be empty.
    pub(crate) fn freeze(self) -> Self {
        debug_assert!(self.base.labels.is_empty(), "a label index freezes once");
        let first = u32::try_from(self.added.labels.len()).expect("label slots exhausted");
        LabelIndex {
            base: Arc::new(self.added),
            added: Slots {
                first,
                ..Slots::default()
            },
            shadowed: Vec::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn shares_base(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// The part holding `slot`, and the slot's index within it.
    fn part(&self, slot: u32) -> (&Slots, usize) {
        match slot.checked_sub(self.added.first) {
            Some(i) => (&self.added, i as usize),
            None => (&self.base, slot as usize),
        }
    }

    /// The resources carrying `slot`'s label.
    fn resources(&self, slot: u32) -> &[ResourceId] {
        if slot < self.added.first {
            if let Ok(k) = self.shadowed.binary_search_by_key(&slot, |&(s, _)| s) {
                return &self.shadowed[k].1;
            }
        }
        let (part, i) = self.part(slot);
        &part.resources[i]
    }

    /// Resources whose normalized label equals `normalize(query)` exactly.
    pub fn exact(&self, query: &str) -> &[ResourceId] {
        self.exact_normalized(&sim::normalize(query))
    }

    /// [`Self::exact`] for an *already normalized* query (the caller
    /// guarantees `norm == sim::normalize(norm)`), skipping the per-call
    /// normalization. The snapshot layer normalizes each distinct cell
    /// value once and probes through this entry point.
    pub fn exact_normalized(&self, norm: &str) -> &[ResourceId] {
        match self
            .base
            .slot_of
            .get(norm)
            .or_else(|| self.added.slot_of.get(norm))
        {
            Some(&s) => self.resources(s),
            None => &[],
        }
    }

    /// Resources whose label is similar to `query` at `threshold` or above,
    /// best score first. Exact matches always score 1.0 and come first.
    ///
    /// Candidate generation requires at least a quarter of the query's
    /// distinct trigrams to be shared (at least one); with the hybrid
    /// similarity and thresholds ≥ 0.5 this prefilter does not lose matches
    /// in practice while keeping lookup sub-linear in the label count.
    pub fn lookup(&self, query: &str, threshold: f64) -> Vec<LabelMatch> {
        self.lookup_normalized(&sim::normalize(query), threshold)
    }

    /// [`Self::lookup`] for an *already normalized* query. Scores are
    /// bit-identical to [`sim::similarity`] on the normalized strings: the
    /// equality short-circuit and the `max(levenshtein, jaccard)` hybrid
    /// are reproduced exactly (see the module docs for how).
    pub fn lookup_normalized(&self, norm: &str, threshold: f64) -> Vec<LabelMatch> {
        self.search_normalized(norm, threshold).0
    }

    /// [`Self::lookup_normalized`] plus the work the search did.
    pub fn search_normalized(
        &self,
        norm: &str,
        threshold: f64,
    ) -> (Vec<LabelMatch>, LabelSearchStats) {
        let qgrams = sim::sorted_trigrams(norm);
        // A slot's count never exceeds the query's distinct-gram count, so
        // `u16` counters suffice for every query but a huge one.
        let (mut hits, stats) = if qgrams.len() <= usize::from(u16::MAX) {
            self.scan::<u16>(norm, &qgrams, threshold)
        } else {
            self.scan::<usize>(norm, &qgrams, threshold)
        };
        // Best score first; ties broken by slot index for determinism.
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = Vec::new();
        for (slot, score) in hits {
            for &r in self.resources(slot) {
                out.push(LabelMatch { resource: r, score });
            }
        }
        (out, stats)
    }

    /// Count the query's shared trigrams per slot, then score every slot
    /// sharing at least a quarter of them: `(slot, score)` for each one at
    /// or above `threshold`, in no particular order.
    fn scan<C: SharedCount>(
        &self,
        norm: &str,
        qgrams: &[[char; 3]],
        threshold: f64,
    ) -> (Vec<(u32, f64)>, LabelSearchStats) {
        let mut stats = LabelSearchStats {
            fuzzy_lookups: 1,
            ..LabelSearchStats::default()
        };
        let mut shared = vec![C::default(); self.len()];
        let mut touched: Vec<u32> = Vec::new();
        for g in qgrams {
            // The added slots' postings follow the base's, as one list
            // of an index built from scratch would.
            for part in [&*self.base, &self.added] {
                let Some(posting) = part.grams.get(g) else {
                    continue;
                };
                stats.postings_scanned += posting.len() as u64;
                for &s in posting {
                    let count = &mut shared[s as usize];
                    if count.get() == 0 {
                        touched.push(s);
                    }
                    count.bump();
                }
            }
        }

        let q_grams = qgrams.len();
        let min_shared = (q_grams / 4).max(1);
        let q_chars = norm.chars().count();
        // Repeated padded windows of the query: `q_chars + 2` windows, of
        // which `q_grams` are distinct.
        let q_repeats = q_chars + 2 - q_grams;
        let pattern = sim::OsaPattern::new(norm);
        let mut hits: Vec<(u32, f64)> = Vec::new();
        for s in touched {
            let inter = shared[s as usize].get();
            if inter < min_shared {
                continue;
            }
            let (part, i) = self.part(s);
            let meta = part.labels[i];
            let jaccard = inter as f64 / (q_grams + meta.grams - inter) as f64;
            let max_len = q_chars.max(meta.chars);
            // Equal gram sets are necessary for equal strings, and cheap.
            let equal = inter == q_grams && meta.grams == q_grams && part.label(i) == norm;
            let score = if equal {
                1.0
            } else {
                // OSA distance lower bound: the longer string's
                // `max_len + 2` padded windows keep at least
                // `max_len + 2 − 4d` in the other string, and those are
                // at most `inter + q_repeats` windows.
                let d_low = q_chars
                    .abs_diff(meta.chars)
                    .max((max_len + 2).saturating_sub(inter + q_repeats).div_ceil(4));
                let lev_up = 1.0 - d_low as f64 / max_len as f64;
                if lev_up < threshold.max(jaccard) || lev_up <= jaccard {
                    // The Levenshtein arm cannot win the max, or the
                    // score misses the threshold either way.
                    jaccard
                } else {
                    stats.candidates_scored += 1;
                    let label = part.label(i);
                    let d = match &pattern {
                        Some(p) => p.distance(label),
                        None => sim::levenshtein(norm, label),
                    };
                    (1.0 - d as f64 / max_len as f64).max(jaccard)
                }
            };
            if score >= threshold {
                hits.push((s, score));
            }
        }
        (hits, stats)
    }
}

/// A per-slot shared-trigram counter: `u16` for every realistic query,
/// `usize` for a query with more distinct trigrams than `u16` holds.
trait SharedCount: Copy + Default {
    fn get(self) -> usize;
    fn bump(&mut self);
}

impl SharedCount for u16 {
    fn get(self) -> usize {
        usize::from(self)
    }
    fn bump(&mut self) {
        *self += 1;
    }
}

impl SharedCount for usize {
    fn get(self) -> usize {
        self
    }
    fn bump(&mut self) {
        *self += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(entries: &[(&str, u32)]) -> LabelIndex {
        let mut i = LabelIndex::new();
        for &(l, r) in entries {
            i.insert(l, ResourceId(r));
        }
        i
    }

    #[test]
    fn exact_lookup_is_normalized() {
        let i = idx(&[("Rome", 1)]);
        assert_eq!(i.exact("rome"), &[ResourceId(1)]);
        assert_eq!(i.exact("  ROME "), &[ResourceId(1)]);
        assert_eq!(i.exact("Milan"), &[]);
    }

    #[test]
    fn homonyms_share_a_slot() {
        let i = idx(&[("Rossi", 1), ("Rossi", 2)]);
        assert_eq!(i.exact("rossi"), &[ResourceId(1), ResourceId(2)]);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let i = idx(&[("Rome", 1), ("Rome", 1)]);
        assert_eq!(i.exact("rome"), &[ResourceId(1)]);
    }

    #[test]
    fn fuzzy_lookup_finds_typos() {
        let i = idx(&[("Pretoria", 1), ("Rome", 2), ("Madrid", 3)]);
        let hits = i.lookup("Pretorai", 0.7);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].resource, ResourceId(1));
        assert!(hits[0].score >= 0.7);
    }

    #[test]
    fn fuzzy_lookup_orders_by_score() {
        let i = idx(&[("Rome", 1), ("Roma", 2)]);
        let hits = i.lookup("Rome", 0.5);
        assert_eq!(hits[0].resource, ResourceId(1));
        assert!((hits[0].score - 1.0).abs() < 1e-12);
        assert!(hits.iter().any(|h| h.resource == ResourceId(2)));
    }

    #[test]
    fn threshold_filters() {
        let i = idx(&[("Rome", 1)]);
        assert!(i.lookup("Tokyo", 0.7).is_empty());
    }

    #[test]
    fn normalized_entry_points_match_raw() {
        let i = idx(&[("Pretoria", 1), ("Rome", 2), ("Madrid", 3), ("Roma", 4)]);
        for q in ["Pretorai", "  ROME ", "madird", "nowhere"] {
            let norm = sim::normalize(q);
            assert_eq!(i.exact(q), i.exact_normalized(&norm), "exact {q}");
            assert_eq!(
                i.lookup(q, 0.5),
                i.lookup_normalized(&norm, 0.5),
                "lookup {q}"
            );
        }
    }

    #[test]
    fn lookup_scores_match_sim_similarity() {
        let i = idx(&[("Madrid", 1)]);
        let hits = i.lookup("Madird", 0.5);
        assert_eq!(hits.len(), 1);
        let expect = sim::similarity(&sim::normalize("Madird"), &sim::normalize("Madrid"));
        assert!((hits[0].score - expect).abs() < 1e-15);
    }

    #[test]
    fn empty_index_lookup() {
        let i = LabelIndex::new();
        assert!(i.is_empty());
        assert!(i.lookup("anything", 0.7).is_empty());
        assert_eq!(i.exact("anything"), &[]);
    }
}
