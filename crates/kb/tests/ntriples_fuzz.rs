//! Fuzz-style properties of the N-Triples ingestion boundary.
//!
//! Two guarantees from the hardening work, checked on generated input:
//!
//! 1. **No panics.** Lenient parsing of arbitrary text — random printable
//!    lines, NT-shaped token soup, truncated prefixes of a valid dump —
//!    returns `Ok` or a typed error, never panics.
//! 2. **Accounting adds up.** Every non-blank, non-comment statement is
//!    either accepted or quarantined; never both, never dropped silently.
//!
//! That both policies load clean input exactly as the reference loader
//! does is `ntriples_oracle.rs`'s job.
//!
//! The case count is elevated in CI via `KATARA_FUZZ_CASES`.

use katara_kb::ntriples;
use katara_kb::IngestPolicy;
use proptest::prelude::*;

/// Per-test case count: `KATARA_FUZZ_CASES` (CI runs an elevated count)
/// or the given local default.
fn fuzz_cases(default: u32) -> u32 {
    std::env::var("KATARA_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A valid dump to slice prefixes from: schema, labels, facts, hierarchy.
const SAMPLE: &str = r#"
<kb:country> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .
<kb:capital> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .
<kb:city> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .
<kb:capital> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <kb:city> .
<kb:hasCapital> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/1999/02/22-rdf-syntax-ns#Property> .
<kb:Italy> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <kb:country> .
<kb:Italy> <http://www.w3.org/2000/01/rdf-schema#label> "Italy" .
<kb:Rome> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <kb:capital> .
<kb:Rome> <http://www.w3.org/2000/01/rdf-schema#label> "Rome" .
<kb:Italy> <kb:hasCapital> <kb:Rome> .
"#;

/// Whatever lenient parsing returns, its books must balance.
fn assert_report_consistent(input: &str) {
    // A typed error (fraction cap, etc.) is an acceptable outcome for
    // garbage input; panicking is not.
    if let Ok((_, report)) = ntriples::parse_with_policy("fuzz", input, &IngestPolicy::lenient()) {
        assert_eq!(
            report.accepted + report.quarantined_count,
            report.total_statements,
            "every statement is accepted or quarantined: {report:?}"
        );
        assert!(report.quarantined.len() <= report.quarantined_count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(64)))]

    /// Lenient ingestion of arbitrary printable lines never panics.
    #[test]
    fn lenient_parse_of_arbitrary_lines_never_panics(
        lines in prop::collection::vec(".{0,60}", 0..16),
    ) {
        assert_report_consistent(&lines.join("\n"));
    }

    /// NT-shaped token soup — angle brackets, quotes, escapes, blank
    /// nodes, comments — exercises the tokenizer's error paths harder
    /// than uniform printable noise does.
    #[test]
    fn lenient_parse_of_nt_token_soup_never_panics(
        lines in prop::collection::vec("[<>\"\\\\@_:#a-z0-9 .^-]{0,40}", 0..16),
    ) {
        assert_report_consistent(&lines.join("\n"));
    }

    /// Truncating a valid dump at any byte yields Ok or a typed error.
    #[test]
    fn truncated_valid_input_never_panics(cut in 0usize..=SAMPLE.len()) {
        // Snap to a char boundary (SAMPLE is ASCII, but stay honest).
        let mut cut = cut;
        while !SAMPLE.is_char_boundary(cut) {
            cut -= 1;
        }
        assert_report_consistent(&SAMPLE[..cut]);
        // Strict mode on a truncated dump must also be panic-free.
        let _ = ntriples::parse("fuzz", &SAMPLE[..cut]);
    }
}

/// Deterministic spot-check: lenient parse of every byte-level mutation
/// of a small dump (one byte flipped to a delimiter) stays panic-free.
#[test]
fn single_byte_mutations_never_panic() {
    for (i, _) in SAMPLE.char_indices() {
        for &b in b"<>\"\\\n\0. " {
            let mut bytes = SAMPLE.as_bytes().to_vec();
            bytes[i] = b;
            if let Ok(mutated) = String::from_utf8(bytes) {
                assert_report_consistent(&mutated);
                let _ = ntriples::parse("fuzz", &mutated);
            }
        }
    }
}

/// The degenerate inputs that historically trip hand-rolled parsers.
#[test]
fn degenerate_inputs_never_panic() {
    for input in [
        "",
        "\n",
        "\r\n",
        ".",
        "<",
        "<a",
        "<a> <b>",
        "<a> <b> <c>",
        "<a> <b> \"unterminated",
        "<a> <b> \"esc\\",
        "_",
        "_x",
        "\"\" \"\" \"\" .",
        "<a> <b> <c> . extra",
        "# just a comment",
        "\u{feff}<a> <b> <c> .",
    ] {
        assert_report_consistent(input);
        let _ = ntriples::parse("fuzz", input);
    }
}
