//! Differential tests of the N-Triples loader against its oracle.
//!
//! [`ntriples::parse_with_policy`] tokenizes into slices of the input,
//! numbers each distinct term once and runs its later passes on those
//! numbers. The oracle (`nt_oracle`) is the loader it replaced: owned
//! terms, passes keyed by text. On every input below, under every policy,
//! both must return the same KB (byte-identical [`ntriples::to_string`])
//! and the same `IngestReport`, or the same `NtError`.
//!
//! The case count is elevated in CI via `KATARA_FUZZ_CASES`.

mod nt_oracle;

use katara_kb::ntriples::{self, RDFS_CLASS, RDFS_LABEL, RDFS_SUBCLASS, RDF_PROPERTY, RDF_TYPE};
use katara_kb::{IngestMode, IngestPolicy, KbBuilder};
use proptest::prelude::*;

/// Per-test case count: `KATARA_FUZZ_CASES` (CI runs an elevated count)
/// or the given local default.
fn fuzz_cases(default: u32) -> u32 {
    std::env::var("KATARA_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The policies every input is loaded under: both modes as shipped, and
/// both with caps small enough for the corpus to hit them.
fn policies() -> Vec<IngestPolicy> {
    let mut tight = IngestPolicy::lenient();
    tight.max_literal_len = 4;
    tight.max_term_len = 12;
    tight.max_quarantine_entries = 2;
    let tight_strict = IngestPolicy {
        mode: IngestMode::Strict,
        ..tight.clone()
    };
    vec![
        IngestPolicy::strict(),
        IngestPolicy::lenient(),
        tight,
        tight_strict,
    ]
}

/// Assert that the loader and the oracle agree on `input` under every
/// policy: the same serialized KB and report, or the same error.
fn assert_matches_oracle(input: &str) {
    for policy in policies() {
        let got = ntriples::parse_with_policy("t", input, &policy);
        let want = nt_oracle::parse_with_policy("t", input, &policy);
        match (got, want) {
            (Ok((kb, report)), Ok((oracle_kb, oracle_report))) => {
                assert_eq!(
                    ntriples::to_string(&kb),
                    ntriples::to_string(&oracle_kb),
                    "KB bytes differ on {input:?} under {policy:?}"
                );
                assert_eq!(
                    report, oracle_report,
                    "reports differ on {input:?} under {policy:?}"
                );
            }
            (Err(e), Err(oracle_e)) => {
                assert_eq!(e, oracle_e, "errors differ on {input:?} under {policy:?}")
            }
            (got, want) => panic!(
                "outcomes differ on {input:?} under {policy:?}: {:?} vs {:?}",
                got.map(|(_, r)| r),
                want.map(|(_, r)| r)
            ),
        }
    }
}

/// Whitespace the tokenizer must treat as Unicode `White_Space`, and a
/// few chars it must not (BOM, zero-width space).
const SEPARATORS: [&str; 10] = [
    " ", "\t", "\u{a0}", "\u{2003}", "\u{85}", "\u{b}", "\u{c}", "", "\u{feff}", "\u{200b}",
];

/// Subjects and predicates, well-formed or not.
const HEADS: [&str; 14] = [
    "<kb:a>",
    "<kb:b>",
    "_:b1",
    "_:b\u{a0}1",
    "_:kb:a",
    "\"lit\"",
    "<a b>",
    "<kb:p>",
    "_:p",
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>",
    "<http://www.w3.org/2000/01/rdf-schema#label>",
    "<http://www.w3.org/2000/01/rdf-schema#subClassOf>",
    "_x",
    "<kb:unterminated",
];

/// Objects: terms, literals with every escape and suffix shape.
const OBJECTS: [&str; 24] = [
    "<kb:a>",
    "<kb:c>",
    "_:b1",
    "\"x\"",
    "\"Rome\"@en",
    "\"x\"^y<t>",
    "\"x\"^^<http://www.w3.org/2001/XMLSchema#string>",
    "\"x\"^^",
    "\"\\u+041\"",
    "\"\\u00\"",
    "\"\\u0041\"",
    "\"\\uD800\"",
    "\"\\U0001F600\"",
    "\"\\U0000D800\"",
    "\"\\U00110000\"",
    "\"\\U0001F60\"",
    "\"\\U+0001F60\"",
    "\"a\\b\\f\\'\\t\\n\\r\\\"\\\\\"",
    "\"bad \\x\"",
    "\"unterminated",
    "\"esc\\",
    "<http://www.w3.org/2000/01/rdf-schema#Class>",
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#Property>",
    "<kb:a><kb:b>",
];

/// What ends a line: the `.` in every position it may sit, text after
/// it, CRLF, or nothing.
const TAILS: [&str; 9] = [
    " .", ".", " . extra", " .\r", "\r", "", " . # c", "<kb:c> .", " ,",
];

/// A line assembled from the pieces above.
fn shaped_line((sep, s, p, o, tail): (usize, usize, usize, usize, usize)) -> String {
    let sep = SEPARATORS[sep % SEPARATORS.len()];
    format!(
        "{s}{sep}{p}{sep}{o}{tail}",
        s = HEADS[s % HEADS.len()],
        p = HEADS[p % HEADS.len()],
        o = OBJECTS[o % OBJECTS.len()],
        tail = TAILS[tail % TAILS.len()],
    )
}

/// A random KB built through the public builder, with homonym labels so
/// the audit reports collisions.
fn kb_strategy() -> impl Strategy<Value = katara_kb::Kb> {
    const NC: usize = 4;
    const NP: usize = 3;
    let entity = (prop::collection::vec(0usize..NC, 0..3), 0usize..6);
    let fact = (0usize..12, 0usize..NP, 0usize..12);
    let literal = (0usize..12, 0usize..NP, "[a-c \"\\\\\n]{0,4}");
    (
        prop::collection::vec(entity, 3..12),
        prop::collection::vec(fact, 0..24),
        prop::collection::vec(literal, 0..6),
        prop::collection::vec((0usize..NC, 0usize..NC), 0..4),
    )
        .prop_map(|(entities, facts, literals, class_edges)| {
            let mut b = KbBuilder::new();
            let classes: Vec<_> = (0..NC).map(|i| b.class(&format!("c{i}"))).collect();
            let props: Vec<_> = (0..NP).map(|i| b.property(&format!("p{i}"))).collect();
            for (c, p) in class_edges {
                let _ = b.subclass(classes[c], classes[p]);
            }
            let resources: Vec<_> = entities
                .iter()
                .enumerate()
                .map(|(i, (ts, label))| {
                    let types: Vec<_> = ts.iter().map(|&t| classes[t]).collect();
                    b.entity_labeled(&format!("e{i}"), &format!("L {label}"), &types)
                })
                .collect();
            let n = resources.len();
            for &(s, p, o) in &facts {
                b.fact(resources[s % n], props[p], resources[o % n]);
            }
            for (s, p, lit) in &literals {
                b.literal_fact(resources[s % n], props[*p], lit);
            }
            b.finalize()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(64)))]

    /// NT-shaped token soup: brackets, quotes, escapes, blank nodes,
    /// comments, tags.
    #[test]
    fn token_soup_matches_the_oracle(
        lines in prop::collection::vec("[<>\"\\\\@_:#a-z0-9 .^uU+-]{0,40}", 0..16),
    ) {
        assert_matches_oracle(&lines.join("\n"));
    }

    /// Arbitrary printable lines.
    #[test]
    fn printable_lines_match_the_oracle(
        lines in prop::collection::vec(".{0,60}", 0..16),
    ) {
        assert_matches_oracle(&lines.join("\n"));
    }

    /// Token soup over Unicode whitespace (NBSP, em space, NEL, VT, FF),
    /// a BOM, a zero-width space and CR.
    #[test]
    fn unicode_whitespace_soup_matches_the_oracle(
        lines in prop::collection::vec(
            "[<>\"\\\\_:ab. \t\r\u{a0}\u{2003}\u{85}\u{b}\u{c}\u{feff}\u{200b}]{0,30}",
            0..12,
        ),
    ) {
        assert_matches_oracle(&lines.join("\n"));
    }

    /// Lines assembled from the corner pieces: separators, term shapes,
    /// escapes, suffixes and line ends.
    #[test]
    fn shaped_lines_match_the_oracle(
        lines in prop::collection::vec(
            (0usize..10, 0usize..14, 0usize..14, 0usize..24, 0usize..9),
            0..24,
        ),
    ) {
        let text: Vec<String> = lines.into_iter().map(shaped_line).collect();
        assert_matches_oracle(&text.join("\n"));
    }

    /// Serialized random KBs: clean input, where both policies must also
    /// report a clean load.
    #[test]
    fn serialized_kbs_match_the_oracle(kb in kb_strategy()) {
        let text = ntriples::to_string(&kb);
        assert_matches_oracle(&text);
        for policy in [IngestPolicy::strict(), IngestPolicy::lenient()] {
            let (_, report) = ntriples::parse_with_policy("t", &text, &policy)
                .expect("a serialized KB reloads");
            prop_assert!(!report.is_degraded(), "clean input degraded: {:?}", report);
            prop_assert_eq!(report.accepted, report.total_statements);
        }
    }
}

/// The tokenizer's odd corners, one input each.
#[test]
fn corner_inputs_match_the_oracle() {
    let ty = format!("<{RDF_TYPE}>");
    let label = format!("<{RDFS_LABEL}>");
    let class = format!("<{RDFS_CLASS}>");
    let mut corners: Vec<String> = [
        // Unicode whitespace as separators and inside blank labels.
        "<kb:a>\u{a0}<kb:p>\u{2003}<kb:b>\u{85}.",
        "<kb:a>\u{b}<kb:p>\u{c}<kb:b> .",
        "_:x\u{a0}y <kb:p> <kb:b> .",
        "_:x\u{2003}<kb:p> <kb:b> .",
        "\u{a0}<kb:a> <kb:p> <kb:b> .\u{85}",
        // `from_str_radix` accepts a leading `+`; a short `\u` eats the
        // closing quote.
        "<kb:a> <kb:p> \"\\u+041\" .",
        "<kb:a> <kb:p> \"\\u00\" .",
        "<kb:a> <kb:p> \"\\u00",
        "<kb:a> <kb:p> \"\\u0041",
        // The W3C escapes.
        "<kb:a> <kb:p> \"\\U0001F600 \\b\\f\\'\" .",
        "<kb:a> <kb:p> \"\\U0000D800\\U00110000\\uDFFF\" .",
        "<kb:a> <kb:p> \"\\U0001F60\" .",
        "<kb:a> <kb:p> \"\\U+0001F60\" .",
        "<kb:a> <kb:p> \"\\U0001F6",
        "<kb:a> <kb:p> \"\\v\" .",
        // Datatypes and language tags.
        "<kb:a> <kb:p> \"x\"^y<t> .",
        "<kb:a> <kb:p> \"x\"^y<t .",
        "<kb:a> <kb:p> \"x\"^ .",
        "<kb:a> <kb:p> \"x\"@en-GB .",
        "<kb:a> <kb:p> \"x\"@en.",
        // An IRI with a space, adjacent terms.
        "<a b> <kb:p> <c d> .",
        "<a><b><c>.",
        "<a><b>\"c\".",
        // Text after the `.`, a BOM, CRLF, comments.
        "<kb:a> <kb:p> <kb:b> . trailing words",
        "<kb:a> <kb:p> <kb:b> .. .",
        "\u{feff}<kb:a> <kb:p> <kb:b> .",
        "<kb:a> <kb:p> <kb:b> .\r\n<kb:b> <kb:p> <kb:a> .\r\n",
        "  # indented comment\n<kb:a> <kb:p> <kb:b> .",
        // Literal subjects, blank and literal predicates.
        "\"lit\" <kb:p> <kb:b> .",
        "<kb:a> _:p <kb:b> .",
        "<kb:a> \"p\" <kb:b> .",
        // A blank node and an IRI share one namespace.
        "_:kb:a <kb:p> <kb:b> .\n<kb:a> <kb:p> _:kb:b .",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Schema corners: a class used as a subject of facts, a blank
    // subject of a schema statement, a label on a class, a typed blank.
    corners.push(format!(
        "<kb:c> {ty} {class} .\n<kb:c> <kb:p> <kb:x> .\n<kb:c> <kb:p> _:y .\n\
         <kb:c> {label} \"C\" .\n_:c {ty} {class} .\n_:d {ty} <kb:c> .\n\
         <kb:e> {ty} <kb:c> .\n<kb:e> {label} \"first\" .\n<kb:e> {label} \"second\" .\n\
         <kb:e> <kb:p> \"lit\" .\n<kb:f> {label} <kb:e> .\n<kb:g> {ty} \"lit\" .\n\
         <kb:p> <{RDFS_SUBCLASS}> \"lit\" .\n<kb:q> {ty} <{RDF_PROPERTY}> .\n<kb:q> <kb:p> <kb:e> ."
    ));
    // Hierarchy cycles: strict fails, lenient repairs.
    corners.push(format!(
        "<kb:x> <{RDFS_SUBCLASS}> <kb:y> .\n<kb:y> <{RDFS_SUBCLASS}> <kb:x> .\n\
         <kb:x> <{RDFS_SUBCLASS}> <kb:x> ."
    ));
    // Quarantine: enough garbage to trip the fraction cap, and not.
    corners.push("junk\n".repeat(9));
    corners.push(format!("{}junk\n", "<kb:a> <kb:p> <kb:b> .\n".repeat(9)));
    for input in &corners {
        assert_matches_oracle(input);
    }
}
