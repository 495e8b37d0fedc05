//! An independent oracle for the fuzzy label search.
//!
//! The label index scores candidates through a packed label arena, dense
//! shared-trigram counts, an exact bound on the edit distance and the
//! bit-vector OSA kernel. None of that may change an answer, so these
//! properties compare it against the plainest possible reference:
//!
//! 1. **Kernel == DP.** [`sim::OsaPattern`] and [`sim::levenshtein`] equal
//!    the dynamic program [`sim::levenshtein_dp`] on random pairs of 0–70
//!    chars over small alphabets (ASCII and not), where transpositions and
//!    repeated trigrams are common, and over a wide one. The char-set
//!    bound [`sim::char_set_bound`] never exceeds the DP distance, on
//!    random pairs and on pairs a few edits apart.
//! 2. **Lookup == brute force.** [`LabelIndex::lookup`] equals a scan of
//!    every slot — quarter-of-grams prefilter, `max(DP levenshtein_sim,
//!    trigram_jaccard)`, sorted by (score desc, slot asc) — in resources,
//!    order and score bits, at thresholds 0.5, 0.7 and 0.9. The search's
//!    work counts are checked against the same scan. The wide alphabet
//!    sets every char-signature bit, so labels differ in their char sets
//!    and the char-set bound cuts; labels longer than a packed count
//!    field holds take the index's fallback to the label text.
//! 3. **Clone == scratch.** Entities added to a clone of a finalized store
//!    (new labels and homonyms of its labels, which the clone keeps out
//!    of the shared base) resolve exactly and fuzzily like a store built
//!    with them from scratch: same resources, order, score bits and work.
//!
//! The case count is elevated in CI via `KATARA_FUZZ_CASES`.

use katara_kb::sim;
use katara_kb::{Kb, KbBuilder, LabelIndex, ResourceId};
use proptest::prelude::*;

/// Per-test case count: `KATARA_FUZZ_CASES` (CI runs an elevated count)
/// or the given local default.
fn fuzz_cases(default: u32) -> u32 {
    std::env::var("KATARA_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Small alphabets: few symbols make transpositions and repeated grams
/// likely. Spaces and capitals exercise normalization in the lookups. The
/// last is [`WIDE`].
const ALPHABETS: [&[char]; 6] = [
    &['a', 'b'],
    &['a', 'b', 'c'],
    &['a', 'é', '日'],
    &['x', 'ñ', 'Y', ' '],
    &['a', 'b', ' ', 'C', 'ß'],
    WIDE,
];

/// One symbol per char-signature bit: the letters, the digits, and twelve
/// chars whose code points cover the twelve bits every other char shares.
/// Two more share a bit with one of those: `Q` once normalized, and `日`.
const WIDE: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', ' ', '-',
    '.', 'ä', 'å', 'æ', 'ç', 'è', 'é', 'ê', 'ë', 'ï', 'Q', '日',
];

/// Symbol picks span every alphabet in full (`% alphabet.len()`).
const PICKS: usize = 64;

fn spell(alphabet: &[char], picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| alphabet[i % alphabet.len()])
        .collect()
}

/// A word of char runs: long runs repeat padded trigrams, which loosen
/// the distance bound the search derives from shared-gram counts.
fn spell_runs(alphabet: &[char], runs: &[(usize, usize)]) -> String {
    runs.iter()
        .flat_map(|&(i, n)| std::iter::repeat_n(alphabet[i % alphabet.len()], n))
        .collect()
}

/// `base` after `edits` of kind (substitute, insert, delete, transpose),
/// each at a position and with a char drawn from `alphabet`.
fn perturb(base: &str, edits: &[(usize, usize, usize)], alphabet: &[char]) -> String {
    let mut s: Vec<char> = base.chars().collect();
    for &(kind, pos, pick) in edits {
        let c = alphabet[pick % alphabet.len()];
        match kind {
            0 if !s.is_empty() => {
                let i = pos % s.len();
                s[i] = c;
            }
            1 => s.insert(pos % (s.len() + 1), c),
            2 if !s.is_empty() => {
                s.remove(pos % s.len());
            }
            3 if s.len() >= 2 => {
                let i = pos % (s.len() - 1);
                s.swap(i, i + 1);
            }
            _ => {}
        }
    }
    s.into_iter().collect()
}

/// The index's slots as the reference sees them: distinct normalized
/// labels in first-insertion order, each with its resources in
/// first-insertion order.
fn reference_slots(entries: &[(String, u32)]) -> Vec<(String, Vec<ResourceId>)> {
    let mut slots: Vec<(String, Vec<ResourceId>)> = Vec::new();
    for (label, r) in entries {
        let norm = sim::normalize(label);
        let i = match slots.iter().position(|(l, _)| *l == norm) {
            Some(i) => i,
            None => {
                slots.push((norm, Vec::new()));
                slots.len() - 1
            }
        };
        if !slots[i].1.contains(&ResourceId(*r)) {
            slots[i].1.push(ResourceId(*r));
        }
    }
    slots
}

fn index_of(entries: &[(String, u32)]) -> LabelIndex {
    let mut idx = LabelIndex::new();
    for (label, r) in entries {
        idx.insert(label, ResourceId(*r));
    }
    idx
}

/// What the brute-force scan found: the hits as (resource, score bits),
/// the posting entries a trigram index would read, and how many labels
/// passed the prefilter.
struct Reference {
    hits: Vec<(ResourceId, u64)>,
    postings: u64,
    survivors: u64,
}

fn brute_force(slots: &[(String, Vec<ResourceId>)], query: &str, threshold: f64) -> Reference {
    let norm = sim::normalize(query);
    let qgrams = sim::sorted_trigrams(&norm);
    let min_shared = (qgrams.len() / 4).max(1);
    let (mut postings, mut survivors) = (0u64, 0u64);
    let mut scored: Vec<(usize, f64)> = Vec::new();
    for (slot, (label, _)) in slots.iter().enumerate() {
        let lgrams = sim::sorted_trigrams(label);
        let shared = qgrams
            .iter()
            .filter(|g| lgrams.binary_search(g).is_ok())
            .count();
        postings += shared as u64;
        if shared < min_shared {
            continue;
        }
        survivors += 1;
        let max_len = norm.chars().count().max(label.chars().count());
        let lev = if max_len == 0 {
            1.0
        } else {
            1.0 - sim::levenshtein_dp(&norm, label) as f64 / max_len as f64
        };
        let score = lev.max(sim::trigram_jaccard(&norm, label));
        if score >= threshold {
            scored.push((slot, score));
        }
    }
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let hits = scored
        .iter()
        .flat_map(|&(s, score)| slots[s].1.iter().map(move |&r| (r, score.to_bits())))
        .collect();
    Reference {
        hits,
        postings,
        survivors,
    }
}

fn bits(idx: &LabelIndex, query: &str, threshold: f64) -> Vec<(ResourceId, u64)> {
    idx.lookup(query, threshold)
        .iter()
        .map(|m| (m.resource, m.score.to_bits()))
        .collect()
}

/// Check one query at every threshold: hits against the reference, and
/// the search's work counts against the reference scan.
fn check_query(idx: &LabelIndex, slots: &[(String, Vec<ResourceId>)], query: &str) {
    for threshold in [0.5, 0.7, 0.9] {
        let expect = brute_force(slots, query, threshold);
        assert_eq!(
            bits(idx, query, threshold),
            expect.hits,
            "query {query:?} at {threshold}"
        );
        let (_, stats) = idx.search_normalized(&sim::normalize(query), threshold);
        assert_eq!(stats.fuzzy_lookups, 1);
        assert_eq!(stats.postings_scanned, expect.postings, "query {query:?}");
        assert_eq!(stats.candidates_kept, expect.survivors, "query {query:?}");
        assert!(
            stats.candidates_scored <= expect.survivors,
            "query {query:?}: {} distances for {} survivors",
            stats.candidates_scored,
            expect.survivors
        );
    }
}

/// A drawn query: which word, and the edits [`perturb`] applies to it.
type Query = (usize, Vec<(usize, usize, usize)>);

/// Index the `words` that `entries` draw, and check each query, a word
/// after its edits, against the brute-force scan.
fn check_lookups(alphabet: &[char], words: &[String], entries: &[(usize, u32)], queries: &[Query]) {
    // Homonyms: several entries may draw the same word (or words that
    // normalize alike) for different resources.
    let entries: Vec<(String, u32)> = entries
        .iter()
        .map(|&(w, r)| (words[w % words.len()].clone(), r))
        .collect();
    let idx = index_of(&entries);
    let slots = reference_slots(&entries);
    assert_eq!(idx.len(), slots.len());
    for (w, edits) in queries {
        let query = perturb(&words[w % words.len()], edits, alphabet);
        check_query(&idx, &slots, &query);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(256)))]

    #[test]
    fn kernel_equals_dp(
        alphabet in 0usize..ALPHABETS.len(),
        a in prop::collection::vec(0usize..PICKS, 0..71),
        b in prop::collection::vec(0usize..PICKS, 0..71),
    ) {
        let alphabet = ALPHABETS[alphabet];
        let (a, b) = (spell(alphabet, &a), spell(alphabet, &b));
        let expect = sim::levenshtein_dp(&a, &b);
        let bound = sim::char_set_bound(sim::char_signature(&a), sim::char_signature(&b));
        prop_assert!(bound <= expect, "{:?}/{:?}: bound {} over {}", a, b, bound, expect);
        prop_assert_eq!(sim::levenshtein(&a, &b), expect, "{:?}/{:?}", a, b);
        prop_assert_eq!(sim::levenshtein(&b, &a), expect, "{:?}/{:?}", b, a);
        // Either string as the pattern, whatever the text's length.
        for (p, t) in [(&a, &b), (&b, &a)] {
            if let Some(pattern) = sim::OsaPattern::new(p) {
                prop_assert_eq!(pattern.distance(t), expect, "pattern {:?}, text {:?}", p, t);
            }
        }
    }

    #[test]
    fn char_set_bound_never_exceeds_the_distance(
        alphabet in 0usize..ALPHABETS.len(),
        word in prop::collection::vec(0usize..PICKS, 0..24),
        edits in prop::collection::vec((0usize..5, 0usize..64, 0usize..PICKS), 0..6),
    ) {
        // A few edits apart, the bound is often tight: one substitution
        // of a char the word holds once, by one it lacks, costs 1 on each
        // side, and a bound that summed the sides would claim 2.
        let alphabet = ALPHABETS[alphabet];
        let a = spell(alphabet, &word);
        let b = perturb(&a, &edits, alphabet);
        let bound = sim::char_set_bound(sim::char_signature(&a), sim::char_signature(&b));
        prop_assert!(bound <= sim::levenshtein_dp(&a, &b), "{:?}/{:?}", a, b);
    }

    #[test]
    fn lookup_equals_brute_force(
        alphabet in 0usize..ALPHABETS.len(),
        words in prop::collection::vec(
            prop::collection::vec((0usize..PICKS, 1usize..7), 0..6),
            1..24,
        ),
        entries in prop::collection::vec((0usize..64, 0u32..24), 1..48),
        queries in prop::collection::vec(
            (0usize..64, prop::collection::vec((0usize..5, 0usize..64, 0usize..PICKS), 0..4)),
            1..6,
        ),
    ) {
        let alphabet = ALPHABETS[alphabet];
        let words: Vec<String> = words.iter().map(|w| spell_runs(alphabet, w)).collect();
        check_lookups(alphabet, &words, &entries, &queries);
    }

    #[test]
    fn wide_lookup_equals_brute_force(
        words in prop::collection::vec(prop::collection::vec(0usize..PICKS, 0..24), 1..24),
        entries in prop::collection::vec((0usize..64, 0u32..24), 1..48),
        queries in prop::collection::vec(
            (0usize..64, prop::collection::vec((0usize..5, 0usize..64, 0usize..PICKS), 0..4)),
            1..6,
        ),
    ) {
        // Plain words over the wide alphabet hold most of their chars
        // once, so an edit often adds or removes a char, and the char-set
        // bound is often tight.
        let words: Vec<String> = words.iter().map(|w| spell(WIDE, w)).collect();
        check_lookups(WIDE, &words, &entries, &queries);
    }

    #[test]
    fn clone_additions_resolve_like_a_store_built_with_them(
        alphabet in 0usize..ALPHABETS.len(),
        words in prop::collection::vec(
            prop::collection::vec((0usize..PICKS, 1usize..7), 0..6),
            1..16,
        ),
        base in prop::collection::vec(0usize..64, 1..24),
        added in prop::collection::vec(0usize..64, 1..12),
        queries in prop::collection::vec(
            (0usize..64, prop::collection::vec((0usize..5, 0usize..64, 0usize..PICKS), 0..4)),
            1..6,
        ),
    ) {
        let alphabet = ALPHABETS[alphabet];
        let words: Vec<String> = words.iter().map(|w| spell_runs(alphabet, w)).collect();
        // Added labels draw from the same few words as the base's, so
        // many are homonyms of base labels.
        let labels = |picks: &[usize]| -> Vec<String> {
            picks.iter().map(|&w| words[w % words.len()].clone()).collect()
        };
        let (base, added) = (labels(&base), labels(&added));
        let (clone, scratch) = clone_and_scratch(&base, &added);
        for (w, edits) in &queries {
            let word = &words[w % words.len()];
            check_clone(&clone, &scratch, word);
            check_clone(&clone, &scratch, &perturb(word, edits, alphabet));
        }
    }
}

/// A finalized store of `base` labels with `added` entities added to a
/// clone of it, and a store built with both from scratch.
fn clone_and_scratch(base: &[String], added: &[String]) -> (Kb, Kb) {
    let name = |i: usize| format!("e{i}");
    let mut b = KbBuilder::new();
    for (i, label) in base.iter().enumerate() {
        b.entity_labeled(&name(i), label, &[]);
    }
    let mut clone = b.finalize().clone();
    let mut b = KbBuilder::new();
    for (i, label) in base.iter().chain(added).enumerate() {
        b.entity_labeled(&name(i), label, &[]);
    }
    for (i, label) in added.iter().enumerate() {
        clone.add_entity(&name(base.len() + i), label, &[]);
    }
    (clone, b.finalize())
}

/// The clone resolves `query` exactly as the scratch store does.
fn check_clone(clone: &Kb, scratch: &Kb, query: &str) {
    assert_eq!(
        clone.resources_by_label(query),
        scratch.resources_by_label(query),
        "exact {query:?}"
    );
    let resolve = |kb: &Kb| {
        let (hits, stats) = kb.candidate_resources_counted(&sim::normalize(query));
        let hits: Vec<(ResourceId, u64)> = hits.iter().map(|&(r, s)| (r, s.to_bits())).collect();
        (hits, stats)
    };
    assert_eq!(resolve(clone), resolve(scratch), "fuzzy {query:?}");
}

#[test]
fn clone_homonyms_and_new_labels_resolve_like_scratch() {
    let base: Vec<String> = ["Rossi", "Rome", "Madrid", "Roma"]
        .map(String::from)
        .to_vec();
    let added: Vec<String> = ["Rossi", "  ROME ", "Rosi", "Madird", "Rossi"]
        .map(String::from)
        .to_vec();
    let (clone, scratch) = clone_and_scratch(&base, &added);
    assert_eq!(clone.resources_by_label("rossi").len(), 3);
    assert_eq!(clone.resources_by_label("rome").len(), 2);
    for query in [
        "rossi", "Rome", "rosi", "madird", "Madrd", "rossa", "roma", "nowhere",
    ] {
        check_clone(&clone, &scratch, query);
    }
}

/// `n` chars of `alphabet`, drawn from a fixed LCG stream.
fn lcg_string(seed: u64, n: usize, alphabet: &[char]) -> String {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            alphabet[(x >> 33) as usize % alphabet.len()]
        })
        .collect()
}

#[test]
fn long_queries_take_the_dp_path() {
    // Queries over 64 chars have no kernel pattern; labels on both sides
    // of the 64-char line, near and far from the query.
    let alphabet = ['a', 'b', 'c', 'd'];
    let base = lcg_string(7, 70, &alphabet);
    let short = lcg_string(11, 40, &alphabet);
    let entries: Vec<(String, u32)> = vec![
        (base.clone(), 0),
        (perturb(&base, &[(3, 10, 0), (0, 40, 1)], &alphabet), 1),
        (perturb(&base, &[(2, 5, 0)], &alphabet), 2),
        (base[..64].to_string(), 3),
        (short.clone(), 4),
        (format!("{short} {short}"), 5),
    ];
    let idx = index_of(&entries);
    let slots = reference_slots(&entries);
    for query in [
        perturb(&base, &[(3, 20, 0)], &alphabet),
        perturb(&base, &[(1, 66, 2), (0, 3, 3)], &alphabet),
        format!("{short} {short}x"),
        base.clone(),
    ] {
        assert!(query.chars().count() > 64);
        assert!(sim::OsaPattern::new(&query).is_none());
        check_query(&idx, &slots, &query);
    }
}

#[test]
fn the_wide_alphabet_sets_every_signature_bit() {
    let all: String = WIDE.iter().collect();
    let bits = sim::char_signature(&sim::normalize(&all));
    assert_eq!(bits, (1u64 << sim::CHAR_SIGNATURE_BITS) - 1);
}

#[test]
fn labels_longer_than_a_packed_count_read_their_own_text() {
    // The index packs each label's char and distinct-gram counts into 8
    // bits each and reads a saturated one off the label. Lengths around
    // the 255 line: a 253- or 254-char label over the wide alphabet has
    // nearly every padded window distinct, so its gram count saturates
    // while its char count does not; a long run saturates only the char
    // count.
    let long = lcg_string(5, 260, WIDE);
    let mut entries: Vec<(String, u32)> = (250..=260)
        .map(|n| long.chars().take(n).collect::<String>())
        .zip(0u32..)
        .collect();
    entries.push(("a".repeat(300), 20));
    entries.push((format!("{}b", "a".repeat(299)), 21));
    let idx = index_of(&entries);
    let slots = reference_slots(&entries);
    let prefix = |n: usize| long.chars().take(n).collect::<String>();
    for query in [
        prefix(255),
        perturb(&prefix(254), &[(0, 7, 3), (3, 100, 0)], WIDE),
        perturb(&prefix(256), &[(2, 30, 0), (1, 200, 47)], WIDE),
        perturb(&long, &[(0, 0, 12), (0, 90, 13), (0, 180, 14)], WIDE),
        prefix(40),
        "a".repeat(298),
        format!("{}c", "a".repeat(300)),
    ] {
        check_query(&idx, &slots, &query);
    }
}

#[test]
fn query_with_more_distinct_trigrams_than_u16_counts() {
    // 70,000 chars over a 1,000-char alphabet: nearly every padded window
    // is a distinct trigram, so the equal label shares more grams than a
    // `u16` counter holds. A wrapped counter would drop it under the
    // quarter-of-grams prefilter.
    let alphabet: Vec<char> = (0..1000u32)
        .filter_map(|i| char::from_u32(0x4E00 + i))
        .collect();
    let query = lcg_string(3, 70_000, &alphabet);
    let qgrams = sim::sorted_trigrams(&query).len();
    assert!(qgrams > usize::from(u16::MAX), "{qgrams} distinct trigrams");
    let mut idx = LabelIndex::new();
    idx.insert(&query, ResourceId(1));
    idx.insert(&query[..30], ResourceId(2));
    let (hits, stats) = idx.search_normalized(&query, 0.7);
    let found: Vec<_> = hits.iter().map(|m| (m.resource, m.score)).collect();
    assert_eq!(found, vec![(ResourceId(1), 1.0)]);
    assert_eq!(stats.candidates_scored, 0, "equality needs no distance");
}

#[test]
fn repeated_grams_loosen_the_bound() {
    // One substitution apart, but the runs repeat `aaa` so often that
    // the two share only 5 distinct grams of 8. Without the query's
    // repeats the count bound would claim 4 edits and drop the label.
    let entries: Vec<(String, u32)> = vec![
        ("aaaaaaaaacaaaaaaaaa".into(), 1),
        ("aaaaaaaaaaaaaaaaaaa".into(), 2),
        ("aaaabaaaa".into(), 3),
    ];
    let idx = index_of(&entries);
    let slots = reference_slots(&entries);
    for query in ["aaaaaaaaabaaaaaaaaa", "aaaacaaaa", "aaaaaaaaaaaaaaaaaaaa"] {
        check_query(&idx, &slots, query);
    }
    let hits = idx.lookup("aaaaaaaaabaaaaaaaaa", 0.9);
    assert!(hits.iter().any(|m| m.resource == ResourceId(1)));
}

#[test]
fn query_equal_to_a_label_scores_one() {
    let entries: Vec<(String, u32)> = vec![
        ("Rossi".into(), 1),
        ("rosi".into(), 3),
        ("  ROSSI ".into(), 2),
        ("Rossa".into(), 4),
    ];
    let idx = index_of(&entries);
    let hits = idx.lookup("rossi", 0.7);
    assert_eq!(hits[0].resource, ResourceId(1));
    assert_eq!(hits[1].resource, ResourceId(2));
    assert_eq!(hits[0].score.to_bits(), 1.0f64.to_bits());
    assert_eq!(hits[1].score.to_bits(), 1.0f64.to_bits());
    assert!(hits[2..].iter().all(|m| m.score < 1.0));
    check_query(&idx, &reference_slots(&entries), "rossi");
}

#[test]
fn empty_query() {
    // The empty query's padded grams contain no char, so only an empty
    // label shares them.
    let mut entries: Vec<(String, u32)> = vec![("a".into(), 1), ("ab".into(), 2)];
    let idx = index_of(&entries);
    assert!(idx.lookup("", 0.5).is_empty());
    assert!(idx.lookup("   ", 0.5).is_empty());
    check_query(&idx, &reference_slots(&entries), "");
    entries.push(("  ".into(), 3));
    let idx = index_of(&entries);
    let hits: Vec<_> = idx
        .lookup("", 0.5)
        .iter()
        .map(|m| (m.resource, m.score))
        .collect();
    assert_eq!(hits, vec![(ResourceId(3), 1.0)]);
    check_query(&idx, &reference_slots(&entries), " ");
}
