//! Accounting invariants of the katara-obs observability layer over
//! full cleaning runs.
//!
//! The metrics a run exports are only useful if they can be trusted, so
//! this suite pins down the contracts the counters must satisfy:
//!
//! * every snapshot resolve tier balances — hits + misses equals
//!   lookups, nothing double- or under-counted;
//! * crowd spend never exceeds the budget, and the exported counter
//!   agrees with the degradation report;
//! * KB probe counters count *logical* probes — one per non-null cell
//!   or same-row cell pair the discovery scan visits — not snapshot
//!   cache traffic;
//! * the label-search counters count fuzzy lookups, one per distinct
//!   value the exact label index misses, and narrow from postings read
//!   to candidates kept to distances computed;
//! * the deterministic section of [`RunMetrics`] is byte-identical
//!   across worker-pool sizes — the CI gate's contract, asserted here
//!   at the library level.

use std::collections::HashSet;
use std::sync::Arc;

use katara_core::prelude::*;
use katara_crowd::{Answer, Budget, Crowd, CrowdConfig, Oracle, Question};
use katara_datagen::KbFlavor;
use katara_eval::corpus::{Corpus, CorpusConfig};
use katara_eval::experiments::crowd_for;
use katara_kb::{sim, Kb, KbBuilder, ResourceId};
use katara_table::{Table, Value};

/// The paper's Figure 1 setting in miniature: soccer players with one
/// wrong capital, a KB missing S. Africa's capital fact.
fn setting() -> (Kb, Table) {
    let mut b = KbBuilder::new().with_name("mini-yago");
    let person = b.class("person");
    let country = b.class("country");
    let capital = b.class("capital");
    let nationality = b.property("nationality");
    let has_capital = b.property("hasCapital");
    let pairs = [
        ("Rossi", "Italy", "Rome"),
        ("Klate", "S. Africa", "Pretoria"),
        ("Pirlo", "Italy", "Rome"),
        ("Ramos", "Spain", "Madrid"),
    ];
    for (p, c, cap) in pairs {
        let rp = b.entity(p, &[person]);
        let rc = b.entity(c, &[country]);
        let rcap = b.entity(cap, &[capital]);
        b.fact(rp, nationality, rc);
        if c != "S. Africa" {
            b.fact(rc, has_capital, rcap);
        }
    }
    let kb = b.finalize();

    let mut t = Table::with_opaque_columns("soccer", 3);
    t.push_text_row(&["Rossi", "Italy", "Rome"]);
    t.push_text_row(&["Klate", "S. Africa", "Pretoria"]);
    t.push_text_row(&["Pirlo", "Italy", "Madrid"]); // the error
    t.push_text_row(&["Ramos", "Spain", "Madrid"]);
    (kb, t)
}

/// Ground-truth oracle for the setting.
fn oracle() -> impl Oracle {
    |q: &Question| match q {
        Question::ColumnType {
            column, candidates, ..
        } => {
            let want = ["person", "country", "capital"][*column];
            match candidates.iter().position(|c| c == want) {
                Some(i) => Answer::Choice(i),
                None => Answer::NoneOfTheAbove,
            }
        }
        Question::Relationship {
            columns,
            candidates,
            ..
        } => {
            let want = match columns {
                (0, 1) => "nationality",
                (1, 2) => "hasCapital",
                _ => "",
            };
            match candidates
                .iter()
                .position(|c| c.contains(want) && !want.is_empty())
            {
                Some(i) => Answer::Choice(i),
                None => Answer::NoneOfTheAbove,
            }
        }
        Question::Fact {
            subject,
            property,
            object,
        } => Answer::Bool(matches!(
            (subject.as_str(), property.as_str(), object.as_str()),
            ("S. Africa", "hasCapital", "Pretoria") | ("Klate", "nationality", "S. Africa")
        )),
    }
}

/// One instrumented end-to-end clean; returns the metrics snapshot and
/// the cleaning report.
fn instrumented_clean(threads: usize, budget: Budget) -> (RunMetrics, CleaningReport) {
    let (mut kb, table) = setting();
    let rec = Arc::new(RunRecorder::new());
    let pool = Threads::fixed(threads);
    let config = KataraConfig {
        threads: pool,
        candidates: CandidateConfig {
            threads: pool,
            ..CandidateConfig::default()
        },
        recorder: rec.clone(),
        ..KataraConfig::default()
    };
    let mut crowd = Crowd::new(
        CrowdConfig {
            worker_accuracy: 1.0,
            budget,
            ..CrowdConfig::default()
        },
        oracle(),
    )
    .expect("crowd config is valid");
    let report = Katara::new(config)
        .clean(&table, &mut kb, &mut crowd)
        .expect("clean succeeds");
    let mut metrics = rec.snapshot();
    metrics.threads = threads;
    (metrics, report)
}

#[test]
fn every_resolve_tier_balances() {
    let (m, _) = instrumented_clean(1, Budget::unlimited());
    for tier in ["candidates", "types", "pair"] {
        let lookups = m.counter(&format!("resolve.{tier}_lookups"));
        let hits = m.counter(&format!("resolve.{tier}_hit"));
        let misses = m.counter(&format!("resolve.{tier}_miss"));
        assert!(lookups > 0, "{tier}: no lookups recorded at all");
        assert_eq!(
            hits + misses,
            lookups,
            "{tier}: hits {hits} + misses {misses} != lookups {lookups}"
        );
    }
}

#[test]
fn crowd_spend_respects_the_budget_and_matches_the_report() {
    // Unlimited budget: the counter mirrors the degradation report and
    // no budget gauge is exported (there is no budget to report).
    let (m, report) = instrumented_clean(1, Budget::unlimited());
    let asked = m.counter("crowd.questions_asked");
    assert!(asked > 0, "the run asked no questions");
    assert_eq!(asked as usize, report.degradation.questions_asked);
    assert_eq!(m.gauge("crowd.budget_remaining"), None);
    // Phase split sums to the total spend.
    assert_eq!(
        m.counter("validation.questions") + m.counter("annotation.crowd_questions"),
        asked,
        "validation + annotation spend must equal total crowd spend"
    );

    // Capped budget: spend never exceeds it and the remaining gauge
    // balances against the asked + denied counters.
    let cap = 3u64;
    let (m, report) = instrumented_clean(1, Budget::questions(cap as usize));
    let asked = m.counter("crowd.questions_asked");
    assert!(
        asked <= cap,
        "asked {asked} questions with a budget of {cap}"
    );
    let remaining = m
        .gauge("crowd.budget_remaining")
        .expect("a capped run exports the remaining-budget gauge");
    assert_eq!(remaining, cap - asked);
    assert_eq!(
        Some(remaining as usize),
        report.degradation.budget_remaining
    );
    if report.degradation.budget_exhausted {
        assert_eq!(remaining, 0);
        assert!(m.counter("crowd.budget_denied") > 0);
    }
}

#[test]
fn budget_stopped_counter_agrees_with_the_report() {
    // Repair never spends budget itself, but it runs on an annotation a
    // dead budget truncated — the early-stop counter must fire exactly
    // when the report says the budget ran dry, so metrics and report
    // never tell different stories.
    let (m, report) = instrumented_clean(1, Budget::unlimited());
    assert!(!report.degradation.budget_exhausted);
    assert_eq!(m.counter("repair.budget_stopped"), 0);

    // Cap the budget one question below the run's real appetite so it
    // is guaranteed to die mid-run.
    let appetite = report.degradation.questions_asked;
    assert!(appetite >= 2, "setting must ask at least two questions");
    let (m, report) = instrumented_clean(1, Budget::questions(appetite - 1));
    assert!(
        report.degradation.budget_exhausted,
        "an under-provisioned budget must die mid-run"
    );
    assert_eq!(
        m.counter("repair.budget_stopped"),
        1,
        "the early-stop counter must fire exactly once per degraded run"
    );
}

#[test]
fn discovery_probes_count_non_null_cells_and_cell_pairs() {
    // The probe counters count logical KB work, not snapshot-cache
    // traffic: one type probe per non-null scanned cell, one relation
    // probe per ordered pair of non-null cells sharing a row.
    let (m, _) = instrumented_clean(1, Budget::unlimited());
    let (_, table) = setting();
    let rows = table.num_rows().min(CandidateConfig::default().max_rows);
    let filled: Vec<u64> = (0..rows)
        .map(|r| {
            (0..table.num_columns())
                .filter(|&c| table.cell(r, c).as_str().is_some())
                .count() as u64
        })
        .collect();
    let cells: u64 = filled.iter().sum();
    let pairs: u64 = filled.iter().map(|&n| n * n.saturating_sub(1)).sum();
    assert!(pairs > 0, "the setting has no cell pairs");
    assert_eq!(m.counter("discovery.type_probes"), cells);
    assert_eq!(m.counter("discovery.rel_probes"), pairs);
}

#[test]
fn label_search_counts_one_fuzzy_lookup_per_unlabelled_value() {
    // With enrichment off the run resolves each distinct normalized
    // value once, and only values without an exact label go fuzzy.
    let corpus = Corpus::build(&CorpusConfig::small());
    let g = &corpus.person;
    let flavor = KbFlavor::YagoLike;
    let mut kb = corpus.kb(flavor);
    let rec = Arc::new(RunRecorder::new());
    let config = KataraConfig {
        recorder: rec.clone(),
        annotation: AnnotationConfig { enrich_kb: false },
        ..KataraConfig::default()
    };
    let mut crowd = crowd_for(&corpus, g, flavor, 1.0, 0xC0FFEE);
    Katara::new(config)
        .clean(&g.table, &mut kb, &mut crowd)
        .expect("corpus clean succeeds");
    let m = rec.snapshot();

    let values: HashSet<String> = (0..g.table.num_rows())
        .flat_map(|r| (0..g.table.num_columns()).map(move |c| (r, c)))
        .filter_map(|(r, c)| g.table.cell(r, c).as_str().map(sim::normalize))
        .collect();
    let unlabelled = values
        .iter()
        .filter(|v| kb.resources_by_label(v).is_empty())
        .count() as u64;
    assert!(unlabelled > 0, "the corpus table has no fuzzy values");
    assert_eq!(m.counter("kb.label_fuzzy_lookups"), unlabelled);
    assert!(m.counter("kb.label_postings_scanned") > 0);
    assert!(m.counter("kb.label_candidates_scored") <= m.counter("kb.label_candidates_kept"));
    assert!(m.counter("kb.label_candidates_kept") <= m.counter("kb.label_postings_scanned"));
}

#[test]
fn type_writes_repeat_no_label_search() {
    // A type write moves no label, so it must not send a value back
    // through the label search. Annotation reads only candidates, so
    // without an entity write it patches its snapshot once, at the end
    // of the run, not after every write: each value is counted once in
    // `resolve.values_repatched`, by re-typing it when its candidates
    // name a resource the run typed. University's enrichment writes
    // types and facts but creates no entity.
    let corpus = Corpus::build(&CorpusConfig::small());
    let g = &corpus.university;
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let run = |enrich_kb: bool| {
            let mut kb = corpus.kb(flavor);
            let rec = Arc::new(RunRecorder::new());
            let config = KataraConfig {
                recorder: rec.clone(),
                annotation: AnnotationConfig { enrich_kb },
                ..KataraConfig::default()
            };
            let mut crowd = crowd_for(&corpus, g, flavor, 1.0, 0xC0FFEE);
            let report = Katara::new(config)
                .clean(&g.table, &mut kb, &mut crowd)
                .expect("corpus clean succeeds");
            (rec.snapshot(), report)
        };
        let ((on, report), (off, _)) = (run(true), run(false));
        assert_eq!(
            on.counter("kb.label_fuzzy_lookups"),
            off.counter("kb.label_fuzzy_lookups"),
            "{flavor:?}"
        );
        assert!(on.counter("annotation.enriched_facts") > 0, "{flavor:?}");
        assert_eq!(on.counter("annotation.enriched_entities"), 0, "{flavor:?}");

        let kb = corpus.kb(flavor);
        let typed: HashSet<ResourceId> = report
            .enrichment()
            .ops
            .iter()
            .filter_map(|op| match op {
                DeltaOp::Type { resource, .. } => kb.resolve_resource_name(resource),
                _ => None,
            })
            .collect();
        let snapshot = TableResolution::build(&g.table, &kb, CandidateConfig::default().max_rows);
        let retyped = (0..snapshot.num_values() as u32)
            .filter(|&id| {
                let cands = snapshot.candidates_of(&kb, id);
                cands.iter().any(|(r, _)| typed.contains(r))
            })
            .count() as u64;
        assert!(retyped > 0, "{flavor:?}: the run typed no candidate");
        assert_eq!(
            on.counter("resolve.values_repatched"),
            retyped,
            "{flavor:?}"
        );
    }
}

#[test]
fn delta_edit_accounting_balances() {
    // Every edit a delta run applies lands in exactly one bucket:
    // `delta.tuples_touched` (the output could have changed) or
    // `delta.noop_edits` (raw cell text unchanged, output provably
    // identical). touched + noop == edits applied, nothing double- or
    // under-counted.
    let (mut kb, table) = setting();
    let rec = Arc::new(RunRecorder::new());
    let config = KataraConfig {
        recorder: rec.clone(),
        ..KataraConfig::default()
    };
    let mut crowd = Crowd::new(
        CrowdConfig {
            worker_accuracy: 1.0,
            ..CrowdConfig::default()
        },
        oracle(),
    )
    .expect("crowd config is valid");
    let (mut session, _) = Katara::new(config)
        .delta_session(&table, &mut kb, &mut crowd)
        .expect("bootstrap clean succeeds");

    let before = rec.snapshot();
    assert_eq!(
        before.counter("delta.tuples_touched") + before.counter("delta.noop_edits"),
        0,
        "bootstrap must not count any delta edits"
    );

    // A known mix: one real fix, one byte-identical no-op rewrite, one
    // append, one delete — four edits, three touching and one noop.
    let cells = |row: &[&str]| row.iter().map(|c| Value::from_cell(c)).collect::<Vec<_>>();
    let delta = TableDelta {
        edits: vec![
            TableEdit::Upsert {
                row: 2,
                cells: cells(&["Pirlo", "Italy", "Rome"]),
            },
            TableEdit::Upsert {
                row: 0,
                cells: cells(&["Rossi", "Italy", "Rome"]),
            },
            TableEdit::Upsert {
                row: 4,
                cells: cells(&["Benzema", "France", "Paris"]),
            },
            TableEdit::Delete { row: 1 },
        ],
    };
    session
        .clean_delta(&mut kb, &mut crowd, &delta)
        .expect("delta clean succeeds");

    let m = rec.snapshot();
    let touched = m.counter("delta.tuples_touched");
    let noop = m.counter("delta.noop_edits");
    assert_eq!(
        touched + noop,
        delta.len() as u64,
        "touched {touched} + noop {noop} != {} edits applied",
        delta.len()
    );
    assert_eq!(noop, 1, "exactly one edit rewrote identical bytes");
    // The incremental run re-scores dirty candidate lists instead of
    // re-probing the KB: delta work must be visible under delta.*.
    assert!(
        m.counter("delta.patterns_rescored") > 0,
        "edits that change window cells must re-score candidate lists"
    );
}

#[test]
fn deterministic_section_is_identical_across_thread_counts() {
    let (base, _) = instrumented_clean(1, Budget::unlimited());
    let baseline = base.deterministic_json(0);
    for threads in [2usize, 8] {
        let (m, _) = instrumented_clean(threads, Budget::unlimited());
        assert_eq!(
            baseline,
            m.deterministic_json(0),
            "deterministic section changed between 1 and {threads} threads"
        );
    }
}
