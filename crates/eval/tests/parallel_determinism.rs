//! Thread-count invariance of the parallel hot paths.
//!
//! `discover_candidates` and `generate_repairs` must return identical
//! results for every worker-pool size — `--threads` is a performance
//! knob, never a semantics knob. Checked on real corpus tables and on
//! proptest-generated tables full of degenerate cells (empty strings,
//! junk values no KB entity matches).

use std::sync::OnceLock;

use katara_core::prelude::*;
use katara_core::repair::RepairIndex;
use katara_datagen::KbFlavor;
use katara_eval::corpus::{Corpus, CorpusConfig};
use katara_kb::{Kb, KbBuilder};
use katara_table::Table;
use proptest::prelude::*;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::build(&CorpusConfig::small()))
}

fn config_with(threads: usize) -> CandidateConfig {
    CandidateConfig {
        threads: Threads::fixed(threads),
        ..CandidateConfig::default()
    }
}

/// The pool sizes the ISSUE pins down: sequential, small, oversubscribed.
const POOLS: [usize; 3] = [1, 2, 8];

fn assert_discovery_invariant(table: &Table, kb: &Kb, label: &str) {
    let base = discover_candidates(table, kb, &config_with(POOLS[0]));
    for &threads in &POOLS[1..] {
        let got = discover_candidates(table, kb, &config_with(threads));
        assert_eq!(
            base, got,
            "{label}: candidate discovery differs at {threads} threads"
        );
    }
}

#[test]
fn discovery_is_thread_count_invariant_on_corpus() {
    let corpus = corpus();
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let kb = corpus.kb(flavor);
        let tables: Vec<(&str, &Table)> = vec![
            ("web[0]", &corpus.web[0].table),
            ("wiki[0]", &corpus.wiki[0].table),
            ("person", &corpus.person.table),
            ("soccer", &corpus.soccer.table),
        ];
        for (name, table) in tables {
            assert_discovery_invariant(table, &kb, &format!("{name}/{flavor:?}"));
        }
    }
}

/// One shared read-only [`TableResolution`] feeding every pool size must
/// agree byte for byte with a sequential run over its own snapshot.
#[test]
fn shared_snapshot_discovery_is_thread_count_invariant() {
    let corpus = corpus();
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let kb = corpus.kb(flavor);
        for (name, table) in [
            ("web[0]", &corpus.web[0].table),
            ("person", &corpus.person.table),
        ] {
            let res = TableResolution::build(table, &kb, CandidateConfig::default().max_rows);
            let own = discover_candidates(table, &kb, &config_with(1));
            for &threads in &POOLS {
                let got = discover_candidates_resolved(table, &kb, &res, &config_with(threads));
                assert_eq!(
                    own, got,
                    "{name}/{flavor:?}: shared-snapshot discovery differs at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn repair_is_thread_count_invariant_on_corpus() {
    let corpus = corpus();
    let kb = corpus.kb(KbFlavor::DbpediaLike);
    let table = &corpus.person.table;
    let cands = discover_candidates(table, &kb, &config_with(1));
    let pattern = discover_topk(table, &kb, &cands, 1, &DiscoveryConfig::default())
        .into_iter()
        .next()
        .expect("person table yields a pattern");
    let config = RepairConfig::default();
    let index = RepairIndex::build(&kb, &pattern, &config);
    let rows: Vec<usize> = (0..table.num_rows().min(30)).collect();
    let base = generate_repairs(
        &index,
        &kb,
        &pattern,
        table,
        &rows,
        3,
        &config,
        Threads::fixed(POOLS[0]),
    );
    for &threads in &POOLS[1..] {
        let got = generate_repairs(
            &index,
            &kb,
            &pattern,
            table,
            &rows,
            3,
            &config,
            Threads::fixed(threads),
        );
        assert_eq!(base, got, "repair generation differs at {threads} threads");
    }
}

/// A tiny hand-built KB for the generated-table property: two
/// country/capital pairs plus an entity that collides with a common junk
/// token.
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

/// Palette the generated cells draw from. Index 0 is the empty string —
/// the degenerate case the sequential path historically special-cased.
const PALETTE: [&str; 7] = ["", "Italy", "Rome", "France", "Paris", "zz", "  "];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn discovery_and_repair_invariant_on_generated_tables(
        rows in prop::collection::vec(
            prop::collection::vec(0usize..PALETTE.len(), 3usize),
            0..6usize,
        ),
    ) {
        let kb = toy_kb();
        let mut table = Table::with_opaque_columns("generated", 3);
        for row in &rows {
            let cells: Vec<&str> = row.iter().map(|&i| PALETTE[i]).collect();
            table.push_text_row(&cells);
        }

        assert_discovery_invariant(&table, &kb, "generated");

        // When the table yields a pattern with edges, repairs must be
        // invariant too — including rows made entirely of blanks.
        let cands = discover_candidates(&table, &kb, &config_with(1));
        let Some(pattern) = discover_topk(&table, &kb, &cands, 1, &DiscoveryConfig::default())
            .into_iter()
            .next()
        else {
            return Ok(());
        };
        if pattern.edges().is_empty() {
            return Ok(());
        }
        let config = RepairConfig::default();
        let index = RepairIndex::build(&kb, &pattern, &config);
        let all_rows: Vec<usize> = (0..table.num_rows()).collect();
        let base = generate_repairs(
            &index, &kb, &pattern, &table, &all_rows, 2, &config, Threads::fixed(1),
        );
        for &threads in &POOLS[1..] {
            let got = generate_repairs(
                &index, &kb, &pattern, &table, &all_rows, 2, &config, Threads::fixed(threads),
            );
            prop_assert_eq!(&base, &got, "repairs differ at {} threads", threads);
        }
    }
}
