//! String similarity (the paper's "domain-specific similarity function ≈").
//!
//! KATARA matches table cells to KB labels through Lucene (LARQ) with a 0.7
//! threshold. We emulate that with a hybrid of normalized Levenshtein
//! similarity and character-trigram Jaccard over *normalized* strings
//! (lower-cased, trimmed, inner whitespace collapsed). Either metric alone
//! is a poor Lucene stand-in: Levenshtein under-scores token reordering,
//! Jaccard under-scores very short strings. Taking the max of the two keeps
//! both the "typo" and the "token soup" match families above the threshold.
//!
//! The edit distance is the optimal-string-alignment (OSA) variant of
//! Damerau-Levenshtein. [`levenshtein`] runs the bit-vector kernel of Hyyrö
//! ([`OsaPattern`]) whenever the shorter string has 1–64 chars: one pass
//! over the longer string, 64 DP cells per machine word. Longer pairs go
//! through the dynamic program [`levenshtein_dp`], which is also the
//! reference the kernel is tested against. The fuzzy label search builds
//! one [`OsaPattern`] per query and reuses it for every label it scores.

/// Normalize a string for label comparison: trim, lowercase, collapse runs
/// of whitespace into a single space.
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_was_space = true; // leading spaces are dropped
    for ch in s.trim().chars() {
        if ch.is_whitespace() {
            if !last_was_space {
                out.push(' ');
                last_was_space = true;
            }
        } else {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_was_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Damerau-Levenshtein (optimal string alignment) edit distance between two
/// strings, over `char`s. Adjacent transpositions count as one edit, which
/// matches Lucene's fuzzy matching behaviour.
///
/// The distance is symmetric, so the shorter string becomes the kernel's
/// pattern when it has 1–64 chars; every other pair takes
/// [`levenshtein_dp`]. Both paths return the same number.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (short, long) = if a.chars().count() <= b.chars().count() {
        (a, b)
    } else {
        (b, a)
    };
    match OsaPattern::new(short) {
        Some(pattern) => pattern.distance(long),
        None => levenshtein_dp(a, b),
    }
}

/// The OSA distance of [`levenshtein`] by the three-row dynamic program:
/// the path for pairs whose shorter string is empty or longer than
/// [`OsaPattern::MAX_LEN`] chars, and the reference for the kernel.
pub fn levenshtein_dp(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Three-row DP (previous-previous row needed for transpositions).
    let w = b.len() + 1;
    let mut prev2 = vec![0usize; w];
    let mut prev: Vec<usize> = (0..w).collect();
    let mut cur = vec![0usize; w];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let mut best = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            if i > 0 && j > 0 && ca == b[j - 1] && a[i - 1] == cb {
                best = best.min(prev2[j - 1] + 1);
            }
            cur[j + 1] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The match masks of one pattern string of 1–64 chars for the bit-vector
/// OSA kernel of Hyyrö, "A bit-vector algorithm for computing Levenshtein
/// and Damerau edit distances" (2003). Bit `i` of a char's mask is set iff
/// the pattern's `i`-th char is that char. Built once, the pattern is
/// compared against any number of texts at one pass over each text.
#[derive(Debug, Clone)]
pub struct OsaPattern {
    /// Masks of the ASCII chars, indexed by code point.
    ascii: [u64; 128],
    /// Masks of the pattern's other chars, one entry per distinct char.
    other: Vec<(char, u64)>,
    /// Bit of the pattern's last char: where the distance is read off.
    last: u64,
}

impl OsaPattern {
    /// The longest pattern the kernel takes: one bit per char of a `u64`.
    pub const MAX_LEN: usize = 64;

    /// The masks of `pattern`, or `None` when it is empty or longer than
    /// [`Self::MAX_LEN`] chars.
    pub fn new(pattern: &str) -> Option<Self> {
        let mut ascii = [0u64; 128];
        let mut other: Vec<(char, u64)> = Vec::new();
        let mut bit = 0u64;
        for (i, c) in pattern.chars().enumerate() {
            if i == Self::MAX_LEN {
                return None;
            }
            bit = 1u64 << i;
            if c.is_ascii() {
                ascii[c as usize] |= bit;
            } else if let Some((_, mask)) = other.iter_mut().find(|(o, _)| *o == c) {
                *mask |= bit;
            } else {
                other.push((c, bit));
            }
        }
        (bit != 0).then_some(OsaPattern {
            ascii,
            other,
            last: bit,
        })
    }

    /// The pattern's length in chars.
    fn len(&self) -> usize {
        self.last.trailing_zeros() as usize + 1
    }

    fn mask(&self, c: char) -> u64 {
        if c.is_ascii() {
            self.ascii[c as usize]
        } else {
            self.other
                .iter()
                .find(|(o, _)| *o == c)
                .map_or(0, |&(_, mask)| mask)
        }
    }

    /// The OSA distance between the pattern and `text`, equal to
    /// [`levenshtein_dp`] of the two.
    ///
    /// Column `j` of the DP over (pattern × text) is kept as vertical
    /// delta vectors `vp`/`vn` (+1/−1 between rows); `d0` marks the rows
    /// whose diagonal delta is 0. A transposition makes the diagonal delta
    /// 0 at row `i` when the pattern's chars `i−1, i` are the text's chars
    /// `j, j−1` and the diagonal delta at `(i−1, j−1)` was 1. The running
    /// distance is the last row's value, moved by its horizontal delta.
    pub fn distance(&self, text: &str) -> usize {
        let (mut vp, mut vn) = (u64::MAX, 0u64);
        let (mut d0, mut pm_prev) = (0u64, 0u64);
        let mut dist = self.len();
        for c in text.chars() {
            let pm = self.mask(c);
            let tr = ((!d0 & pm) << 1) & pm_prev;
            d0 = ((pm & vp).wrapping_add(vp) ^ vp) | pm | vn | tr;
            let hp = vn | !(d0 | vp);
            let hn = vp & d0;
            if hp & self.last != 0 {
                dist += 1;
            } else if hn & self.last != 0 {
                dist -= 1;
            }
            // Row 0 is D[0][j] = j: its horizontal delta is always +1.
            let hp = (hp << 1) | 1;
            let hn = hn << 1;
            vp = hn | !(d0 | hp);
            vn = hp & d0;
            pm_prev = pm;
        }
        dist
    }
}

/// The bits a [`char_signature`] uses: the low 48 of a `u64`.
pub const CHAR_SIGNATURE_BITS: u32 = 48;

/// The signature bit of `c`: one per ASCII letter and digit, and the last
/// twelve shared by every other char.
fn char_bit(c: char) -> u32 {
    match c {
        'a'..='z' => c as u32 - 'a' as u32,
        '0'..='9' => 26 + (c as u32 - '0' as u32),
        _ => 36 + c as u32 % 12,
    }
}

/// The set of chars of `s`, hashed into the low [`CHAR_SIGNATURE_BITS`]
/// bits of a word. Distinct set bits stand for distinct chars.
pub fn char_signature(s: &str) -> u64 {
    s.chars().fold(0, |sig, c| sig | 1 << char_bit(c))
}

/// A lower bound on the OSA distance of two strings from their
/// [`char_signature`]s. Each distinct char of one string that the other
/// lacks needs an edit of its own: a substitution or deletion on one side,
/// a substitution or insertion on the other, and a transposition keeps
/// both its chars. One substitution can serve both sides at once, so the
/// bound is the larger side, and a bit one signature has and the other
/// lacks stands for at least one such char.
pub fn char_set_bound(a: u64, b: u64) -> usize {
    (a & !b).count_ones().max((b & !a).count_ones()) as usize
}

/// Normalized Levenshtein similarity in `[0, 1]`:
/// `1 - dist / max(len_a, len_b)`. Two empty strings are fully similar.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// The *distinct* character trigrams of `s`, sorted. `s` is padded with
/// two sentinel chars on each side so short strings still produce
/// several grams (standard n-gram indexing practice; mirrors Lucene's
/// `NGramTokenizer` behaviour closely enough for threshold matching).
/// The set is a sorted vec so set operations are linear merges instead
/// of hash probes.
pub fn sorted_trigrams(s: &str) -> Vec<[char; 3]> {
    let mut grams = Vec::new();
    sorted_trigrams_into(s, &mut Vec::new(), &mut grams);
    grams
}

/// [`sorted_trigrams`] into reused buffers: `padded` receives the padded
/// chars of `s` (so `s` has `padded.len() - 4` chars), `grams` the
/// distinct trigrams, sorted.
pub(crate) fn sorted_trigrams_into(s: &str, padded: &mut Vec<char>, grams: &mut Vec<[char; 3]>) {
    padded.clear();
    padded.extend(
        std::iter::repeat_n('\u{2}', 2)
            .chain(s.chars())
            .chain(std::iter::repeat_n('\u{3}', 2)),
    );
    grams.clear();
    grams.extend(padded.windows(3).map(|w| [w[0], w[1], w[2]]));
    grams.sort_unstable();
    grams.dedup();
}

/// Jaccard similarity of two *sorted, deduplicated* trigram vectors (as
/// produced by [`sorted_trigrams`]) via a two-pointer intersection count.
/// Two empty sets are fully similar.
pub fn jaccard_sorted(a: &[[char; 3]], b: &[[char; 3]]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Jaccard similarity of the trigram *sets* of two strings.
pub fn trigram_jaccard(a: &str, b: &str) -> f64 {
    jaccard_sorted(&sorted_trigrams(a), &sorted_trigrams(b))
}

/// Hybrid similarity in `[0, 1]` over *already normalized* strings: the max
/// of normalized Levenshtein and trigram Jaccard.
pub fn similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    levenshtein_sim(a, b).max(trigram_jaccard(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_basics() {
        assert_eq!(normalize("  Rome "), "rome");
        assert_eq!(normalize("S.   Africa"), "s. africa");
        assert_eq!(normalize("ITALY"), "italy");
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("   "), "");
        assert_eq!(normalize("a\tb\nc"), "a b c");
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("rome", "dome"), 1);
        // Adjacent transposition is one edit (Damerau/OSA).
        assert_eq!(levenshtein("madrid", "madird"), 1);
        assert_eq!(levenshtein("ab", "ba"), 1);
    }

    #[test]
    fn kernel_matches_dp_on_edge_cases() {
        let cases = [
            ("a", ""),
            ("a", "a"),
            ("ab", "ba"),
            ("abc", "ca"),
            ("ca", "abc"),
            ("madrid", "madird"),
            ("kitten", "sitting"),
            ("ñandú", "nandu"),
            ("日本語", "本日語"),
        ];
        for (a, b) in cases {
            assert_eq!(levenshtein(a, b), levenshtein_dp(a, b), "{a}/{b}");
            assert_eq!(levenshtein(b, a), levenshtein_dp(a, b), "{b}/{a}");
        }
        // 64 chars is the widest kernel pattern; 65 takes the DP.
        let long: String = "ab".repeat(32);
        let longer = format!("{long}c");
        assert!(OsaPattern::new(&long).is_some());
        assert!(OsaPattern::new(&longer).is_none());
        assert!(OsaPattern::new("").is_none());
        let swapped: String = "ba".repeat(32);
        assert_eq!(
            OsaPattern::new(&long).map(|p| p.distance(&swapped)),
            Some(levenshtein_dp(&long, &swapped))
        );
        assert_eq!(
            levenshtein(&longer, &swapped),
            levenshtein_dp(&longer, &swapped)
        );
    }

    #[test]
    fn levenshtein_sim_bounds() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("abc", "abc"), 1.0);
        assert_eq!(levenshtein_sim("abc", "xyz"), 0.0);
    }

    #[test]
    fn similarity_symmetric() {
        let pairs = [
            ("rome", "roma"),
            ("italy", "itlay"),
            ("pretoria", "p. eliz."),
        ];
        for (a, b) in pairs {
            let s1 = similarity(a, b);
            let s2 = similarity(b, a);
            assert!((s1 - s2).abs() < 1e-12, "asymmetric for {a}/{b}");
        }
    }

    #[test]
    fn typo_passes_paper_threshold() {
        // One-character typo in a medium-length string should count as a
        // match at the paper's 0.7 threshold.
        assert!(similarity("pretoria", "pretorai") >= 0.7);
        assert!(similarity("italy", "itly") >= 0.7);
        // Completely different strings should not.
        assert!(similarity("italy", "uruguay") < 0.7);
    }

    #[test]
    fn identical_is_one() {
        assert_eq!(similarity("madrid", "madrid"), 1.0);
    }

    #[test]
    fn trigrams_of_short_strings_pinned() {
        // Two sentinel chars on each side: an n-char string yields n + 2
        // windows of width 3. The empty string still produces the two
        // all-sentinel grams, so the gram index never sees an empty key set.
        let (mut padded, mut grams) = (Vec::new(), Vec::new());
        for (s, windows) in [("", 2), ("a", 3), ("ab", 4)] {
            sorted_trigrams_into(s, &mut padded, &mut grams);
            assert_eq!(padded.windows(3).count(), windows, "{s:?}");
        }
        // "" and "a" share no window (every gram of "a" contains 'a'), so
        // their Jaccard is exactly 0 — a well-defined number, never NaN,
        // because the padded gram sets are non-empty.
        assert_eq!(trigram_jaccard("", "a"), 0.0);
    }

    #[test]
    fn sorted_trigrams_dedups() {
        // "aaaa" has six padded windows but the gram [a,a,a] repeats.
        let (mut padded, mut grams) = (Vec::new(), Vec::new());
        sorted_trigrams_into("aaaa", &mut padded, &mut grams);
        assert_eq!(padded.windows(3).count(), 6);
        assert_eq!(grams.len(), 5);
        assert!(
            grams.windows(2).all(|w| w[0] < w[1]),
            "sorted + strict dedup"
        );
        assert_eq!(sorted_trigrams("aaaa"), grams);
    }

    #[test]
    fn jaccard_bounds() {
        assert!(trigram_jaccard("abc", "abc") > 0.99);
        assert_eq!(trigram_jaccard("", ""), 1.0);
        let j = trigram_jaccard("abcdef", "uvwxyz");
        assert!((0.0..=1.0).contains(&j));
    }

    #[test]
    fn jaccard_sorted_matches_string_form() {
        for (a, b) in [("rome", "roma"), ("", "x"), ("ab", "ba"), ("aa", "aa")] {
            let expect = trigram_jaccard(a, b);
            let got = jaccard_sorted(&sorted_trigrams(a), &sorted_trigrams(b));
            assert!((expect - got).abs() < 1e-15, "{a}/{b}");
        }
    }
}
