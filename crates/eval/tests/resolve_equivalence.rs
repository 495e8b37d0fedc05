//! Byte-identical equivalence of the shared-snapshot resolution path
//! and the legacy direct-query path.
//!
//! The [`TableResolution`] snapshot is a performance cache, never a
//! semantics knob: a full cleaning run under [`ResolveMode::Snapshot`]
//! must produce exactly the same report as [`ResolveMode::Direct`] with
//! an identically-seeded crowd, at every worker-pool size. Checked on
//! real corpus tables and on proptest-generated tables full of
//! degenerate cells (empty strings, all-duplicate columns, junk no KB
//! entity matches).

use katara_core::prelude::*;
use katara_crowd::{Answer, Crowd, CrowdConfig, Question};
use katara_datagen::{GeneratedTable, KbFlavor};
use katara_eval::corpus::{Corpus, CorpusConfig};
use katara_eval::experiments::crowd_for;
use katara_kb::{Kb, KbBuilder};
use katara_table::Table;
use proptest::prelude::*;
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::build(&CorpusConfig::small()))
}

/// The pool sizes the ISSUE pins down: sequential, small, oversubscribed.
const POOLS: [usize; 3] = [1, 2, 8];

fn config(mode: ResolveMode, threads: usize) -> KataraConfig {
    KataraConfig {
        resolve: mode,
        threads: Threads::fixed(threads),
        candidates: CandidateConfig {
            threads: Threads::fixed(threads),
            ..CandidateConfig::default()
        },
        ..KataraConfig::default()
    }
}

/// Run one full clean on a corpus table and render the whole report —
/// pattern, annotations, repairs, degradation — as its debug string, the
/// byte-level artifact the equivalence is asserted on.
fn corpus_clean(g: &GeneratedTable, flavor: KbFlavor, mode: ResolveMode, threads: usize) -> String {
    let corpus = corpus();
    let mut kb = corpus.kb(flavor);
    let mut crowd = crowd_for(corpus, g, flavor, 1.0, 0xC0FFEE);
    let report = Katara::new(config(mode, threads))
        .clean(&g.table, &mut kb, &mut crowd)
        .expect("corpus clean succeeds");
    format!("{report:?}")
}

#[test]
fn snapshot_clean_matches_direct_on_corpus() {
    let corpus = corpus();
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        for (name, g) in [("person", &corpus.person), ("web[0]", &corpus.web[0])] {
            let direct = corpus_clean(g, flavor, ResolveMode::Direct, 1);
            for &threads in &POOLS {
                let snap = corpus_clean(g, flavor, ResolveMode::Snapshot, threads);
                assert_eq!(
                    direct, snap,
                    "{name}/{flavor:?}: snapshot clean differs from direct at {threads} threads"
                );
            }
        }
    }
}

/// An externally pre-built snapshot injected via `clean_with_resolution`
/// must behave exactly like the internally built one.
#[test]
fn injected_snapshot_matches_internal_build() {
    let corpus = corpus();
    let flavor = KbFlavor::DbpediaLike;
    let g = &corpus.person;
    let internal = corpus_clean(g, flavor, ResolveMode::Snapshot, 2);

    let mut kb = corpus.kb(flavor);
    let res = TableResolution::build(&g.table, &kb, CandidateConfig::default().max_rows);
    let mut crowd = crowd_for(corpus, g, flavor, 1.0, 0xC0FFEE);
    let report = Katara::new(config(ResolveMode::Snapshot, 2))
        .clean_with_resolution(&g.table, &mut kb, &mut crowd, Some(&res))
        .expect("injected-snapshot clean succeeds");
    assert_eq!(internal, format!("{report:?}"));
}

/// A tiny hand-built KB mirroring the determinism suite's: two
/// country/capital pairs, so generated tables can both hit and miss.
fn toy_kb() -> Kb {
    let mut b = KbBuilder::new();
    let country = b.class("country");
    let capital = b.class("capital");
    let has_capital = b.property("hasCapital");
    let italy = b.entity("Italy", &[country]);
    let rome = b.entity("Rome", &[capital]);
    let france = b.entity("France", &[country]);
    let paris = b.entity("Paris", &[capital]);
    b.fact(italy, has_capital, rome);
    b.fact(france, has_capital, paris);
    b.finalize()
}

/// Deterministic stand-in oracle for tables with no ground truth: both
/// resolve modes see identical answers, which is all equivalence needs.
fn degenerate_answer(q: &Question) -> Answer {
    match q {
        Question::Fact { .. } => Answer::Bool(true),
        _ => Answer::Choice(0),
    }
}

fn degenerate_clean(table: &Table, mode: ResolveMode, threads: usize) -> String {
    format!("{:?}", degenerate_run(table, mode, threads))
}

fn degenerate_run(
    table: &Table,
    mode: ResolveMode,
    threads: usize,
) -> Result<CleaningReport, KataraError> {
    let mut kb = toy_kb();
    let mut crowd = Crowd::new(
        CrowdConfig {
            worker_accuracy: 1.0,
            seed: 7,
            ..CrowdConfig::default()
        },
        degenerate_answer as fn(&Question) -> Answer,
    )
    .expect("crowd config is valid");
    // Degenerate tables may legitimately yield no pattern at all — the
    // two modes must then fail identically, so compare the whole Result.
    Katara::new(config(mode, threads)).clean(table, &mut kb, &mut crowd)
}

/// Enrichment at an early row creates the entity "Germany"; a later
/// row's typo "Germanyy" has no exact label match but is a fuzzy
/// candidate of it (similarity 0.875 >= 0.7). The snapshot must be
/// patched with that write before the later row is matched.
#[test]
fn enrichment_created_fuzzy_candidate_reaches_later_rows() {
    let mut table = Table::with_opaque_columns("fuzzy-enrichment", 2);
    for row in [
        ["Italy", "Rome"],
        ["France", "Paris"],
        ["Germany", "Berlin"],
        ["Italy", "Rome"],
        ["Germanyy", "Berlin"],
    ] {
        table.push_text_row(&row);
    }
    let report = degenerate_run(&table, ResolveMode::Direct, 1).expect("the toy KB covers it");
    // The input exercises the path: row 2 creates both entities, and the
    // typo row then validates against the enriched KB alone.
    assert_eq!(report.annotation.enriched_entities, 2);
    assert_eq!(
        report.annotation.tuples[4].status,
        TupleStatus::ValidatedByKb
    );
    let direct = format!("{:?}", Ok::<_, KataraError>(report));
    for &threads in &POOLS {
        let snap = degenerate_clean(&table, ResolveMode::Snapshot, threads);
        assert_eq!(
            direct, snap,
            "snapshot clean differs from direct at {threads} threads"
        );
    }
}

/// Palette the generated cells draw from. Index 0 is the empty string;
/// "zz"/"  " never resolve; repeating indices yields all-duplicate
/// columns.
const PALETTE: [&str; 7] = ["", "Italy", "Rome", "France", "Paris", "zz", "  "];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn snapshot_clean_matches_direct_on_generated_tables(
        rows in prop::collection::vec(
            prop::collection::vec(0usize..PALETTE.len(), 3usize),
            0..6usize,
        ),
    ) {
        let mut table = Table::with_opaque_columns("generated", 3);
        for row in &rows {
            let cells: Vec<&str> = row.iter().map(|&i| PALETTE[i]).collect();
            table.push_text_row(&cells);
        }

        let direct = degenerate_clean(&table, ResolveMode::Direct, 1);
        for &threads in &POOLS {
            let snap = degenerate_clean(&table, ResolveMode::Snapshot, threads);
            prop_assert_eq!(
                &direct, &snap,
                "snapshot clean differs from direct at {} threads", threads
            );
        }
    }
}
