//! Byte-identical equivalence of the shared-snapshot pipeline and the
//! live-query oracle.
//!
//! The [`TableResolution`] snapshot is a performance cache, never a
//! semantics knob: [`Katara::clean`] — one snapshot shared by every stage
//! and worker, patched through enrichment — must produce exactly the
//! same report as the oracle in `common`, which annotates and repairs
//! through the live-query entry points, with an identically-seeded crowd
//! at every worker-pool size. Checked on real corpus tables, on
//! proptest-generated tables full of degenerate cells (empty strings,
//! all-duplicate columns, junk no KB entity matches), and on an input
//! where enrichment creates a later row's fuzzy candidate. A tier check
//! pins every snapshot tier to the live [`Kb`] query on the corpus
//! tables, fresh and after each replayed enrichment write.

mod common;

use std::collections::{HashMap, HashSet};

use katara_core::prelude::*;
use katara_crowd::{Answer, Crowd, CrowdConfig, Question};
use katara_datagen::{GeneratedTable, KbFlavor};
use katara_eval::corpus::{Corpus, CorpusConfig};
use katara_eval::experiments::crowd_for;
use katara_kb::{sim, Kb, KbBuilder};
use katara_table::Table;
use proptest::prelude::*;
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::build(&CorpusConfig::small()))
}

/// The pool sizes the gates pin: sequential, small, oversubscribed.
const POOLS: [usize; 3] = [1, 2, 8];

fn config(threads: usize) -> KataraConfig {
    KataraConfig {
        threads: Threads::fixed(threads),
        candidates: CandidateConfig {
            threads: Threads::fixed(threads),
            ..CandidateConfig::default()
        },
        ..KataraConfig::default()
    }
}

/// Run one full clean on a corpus table — through `Katara::clean`, or
/// through the live-query oracle when `threads` is `None` — and render
/// the whole report (pattern, annotations, repairs, degradation) as its
/// debug string, the byte-level artifact the equivalence is asserted on.
fn corpus_clean(g: &GeneratedTable, flavor: KbFlavor, threads: Option<usize>) -> String {
    let corpus = corpus();
    let mut kb = corpus.kb(flavor);
    let mut crowd = crowd_for(corpus, g, flavor, 1.0, 0xC0FFEE);
    let report = match threads {
        Some(n) => Katara::new(config(n)).clean(&g.table, &mut kb, &mut crowd),
        None => common::live_clean(&config(1), &g.table, &mut kb, &mut crowd),
    };
    format!("{:?}", report.expect("corpus clean succeeds"))
}

#[test]
fn snapshot_clean_matches_live_oracle_on_corpus() {
    let corpus = corpus();
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        for (name, g) in [("person", &corpus.person), ("web[0]", &corpus.web[0])] {
            let live = corpus_clean(g, flavor, None);
            for &threads in &POOLS {
                let snap = corpus_clean(g, flavor, Some(threads));
                assert_eq!(
                    live, snap,
                    "{name}/{flavor:?}: snapshot clean differs from the live oracle at \
                     {threads} threads"
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
    let internal = corpus_clean(g, flavor, Some(2));

    let mut kb = corpus.kb(flavor);
    let res = TableResolution::build(&g.table, &kb, CandidateConfig::default().max_rows);
    let mut crowd = crowd_for(corpus, g, flavor, 1.0, 0xC0FFEE);
    let report = Katara::new(config(2))
        .clean_with_resolution(&g.table, &mut kb, &mut crowd, Some(&res))
        .expect("injected-snapshot clean succeeds");
    assert_eq!(internal, format!("{report:?}"));
}

/// Assert that every tier of `res` equals the live `kb` query it caches:
/// normalized spellings and value-id grouping per cell; candidates and
/// `Q_types` once per distinct value; `Q_rels^1`/`Q_rels^2` once per
/// distinct co-occurring value pair.
fn assert_tiers_match_live(res: &TableResolution, table: &Table, kb: &Kb, label: &str) {
    let mut id_of: HashMap<String, u32> = HashMap::new();
    let mut seen: HashSet<u32> = HashSet::new();
    for c in 0..table.num_columns() {
        for r in 0..table.num_rows() {
            let cell = table.cell(r, c).as_str();
            assert_eq!(res.value_id(c, r).is_some(), cell.is_some(), "{label}");
            let (Some(cell), Some(id)) = (cell, res.value_id(c, r)) else {
                continue;
            };
            let norm = sim::normalize(cell);
            assert_eq!(res.cell_norm(c, r), Some(norm.as_str()), "{label}");
            let grouped = *id_of.entry(norm).or_insert(id);
            assert_eq!(grouped, id, "{label}: {cell:?} split from its norm's id");
            if seen.insert(id) {
                assert_eq!(
                    res.candidates_of(kb, id),
                    kb.candidate_resources(cell),
                    "{label}: candidates of {cell:?}"
                );
                assert_eq!(
                    res.types_of(kb, id),
                    kb.types_of_value(cell),
                    "{label}: types of {cell:?}"
                );
            }
        }
    }
    assert_eq!(
        seen.len(),
        id_of.len(),
        "{label}: distinct norms share an id"
    );
    let mut pairs: HashSet<(u32, u32)> = HashSet::new();
    for r in 0..table.num_rows() {
        for (i, j) in (0..table.num_columns()).flat_map(|i| {
            (0..table.num_columns())
                .filter(move |&j| j != i)
                .map(move |j| (i, j))
        }) {
            let (Some(a), Some(b)) = (res.value_id(i, r), res.value_id(j, r)) else {
                continue;
            };
            if !pairs.insert((a, b)) {
                continue;
            }
            let (sa, sb) = (
                table.cell(r, i).as_str().unwrap(),
                table.cell(r, j).as_str().unwrap(),
            );
            let rels = res.pair_relations(kb, a, b);
            assert_eq!(
                rels.res,
                kb.relations_between_values(sa, sb),
                "{label}: Q_rels^1 of ({sa:?}, {sb:?})"
            );
            assert_eq!(
                rels.lit,
                kb.relations_to_literal(sa, sb),
                "{label}: Q_rels^2 of ({sa:?}, {sb:?})"
            );
        }
    }
}

/// Every snapshot tier equals the live KB query on the corpus tables —
/// on the fresh snapshot, and after each write of a corpus clean's
/// enrichment is replayed onto the KB and patched in.
#[test]
fn snapshot_tiers_match_live_queries_on_corpus() {
    let corpus = corpus();
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        for (name, g) in [("person", &corpus.person), ("web[0]", &corpus.web[0])] {
            let label = format!("{name}/{flavor:?}");
            let mut kb = corpus.kb(flavor);
            let mut res = TableResolution::build(&g.table, &kb, usize::MAX);
            assert_tiers_match_live(&res, &g.table, &kb, &label);

            let mut enriched = kb.clone();
            let mut crowd = crowd_for(corpus, g, flavor, 1.0, 0xC0FFEE);
            let report = Katara::new(config(1))
                .clean(&g.table, &mut enriched, &mut crowd)
                .expect("corpus clean succeeds");
            for (n, op) in report.enrichment().ops.iter().enumerate() {
                let ops = std::slice::from_ref(op);
                let delta = EnrichmentDelta { ops: ops.to_vec() };
                assert_eq!(kb.apply_delta(&delta).unwrap(), 1, "{label}: op {n}");
                res.apply_enrichment(&kb, ops);
                assert_tiers_match_live(&res, &g.table, &kb, &format!("{label} after op {n}"));
            }
        }
    }
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

/// Deterministic stand-in oracle for tables with no ground truth: the
/// pipeline and the live oracle see identical answers, which is all
/// equivalence needs.
fn degenerate_answer(q: &Question) -> Answer {
    match q {
        Question::Fact { .. } => Answer::Bool(true),
        _ => Answer::Choice(0),
    }
}

/// Clean `table` against the toy KB through `Katara::clean`, or through
/// the live-query oracle when `threads` is `None`. Degenerate tables may
/// legitimately yield no pattern at all — both must then fail
/// identically, so callers compare the whole `Result`.
fn degenerate_run(table: &Table, threads: Option<usize>) -> Result<CleaningReport, KataraError> {
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
    match threads {
        Some(n) => Katara::new(config(n)).clean(table, &mut kb, &mut crowd),
        None => common::live_clean(&config(1), table, &mut kb, &mut crowd),
    }
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
    let report = degenerate_run(&table, None).expect("the toy KB covers it");
    // The input exercises the path: row 2 creates both entities, and the
    // typo row then validates against the enriched KB alone.
    assert_eq!(report.annotation.enriched_entities, 2);
    assert_eq!(
        report.annotation.tuples[4].status,
        TupleStatus::ValidatedByKb
    );
    let live = format!("{:?}", Ok::<_, KataraError>(report));
    for &threads in &POOLS {
        let snap = format!("{:?}", degenerate_run(&table, Some(threads)));
        assert_eq!(
            live, snap,
            "snapshot clean differs from the live oracle at {threads} threads"
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
    fn snapshot_clean_matches_live_oracle_on_generated_tables(
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

        let live = format!("{:?}", degenerate_run(&table, None));
        for &threads in &POOLS {
            let snap = format!("{:?}", degenerate_run(&table, Some(threads)));
            prop_assert_eq!(
                &live, &snap,
                "snapshot clean differs from the live oracle at {} threads", threads
            );
        }
    }
}
