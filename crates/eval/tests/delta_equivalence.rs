//! Byte-identical equivalence of the incremental cleaning engine and a
//! full re-clean.
//!
//! [`DeltaSession::clean_delta`] is a performance cache, never a
//! semantics knob: after any stream of table edits (upserts, appends,
//! deletes) interleaved with KB enrichment deltas, the incremental
//! report must be exactly the report `Katara::clean` produces on the
//! edited table against the same KB state with an identically seeded
//! crowd — including identical `NoPatternFound` failures when edits
//! destroy every pattern. Checked with proptest-generated edit streams
//! at every pinned worker-pool size.

use katara_core::prelude::*;
use katara_crowd::{Answer, Crowd, CrowdConfig, Question};
use katara_kb::{Kb, KbBuilder};
use katara_table::{Table, Value};
use proptest::prelude::*;

/// The pool sizes the equivalence gates pin down: sequential, small,
/// oversubscribed.
const POOLS: [usize; 3] = [1, 2, 8];

/// Cells the generated edits draw from. Index 0 is the empty string
/// (a null); "Berlin"/"Germany" resolve only after enrichment step 0
/// lands; "zz" starts unresolvable and gains a type in step 1.
const PALETTE: [&str; 8] = [
    "", "Italy", "Rome", "France", "Paris", "Berlin", "Germany", "zz",
];

/// Two country/capital pairs, as in the resolve-equivalence suite, so
/// edits can both repair and destroy the discovered pattern.
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

fn base_table() -> Table {
    let mut t = Table::with_opaque_columns("pairs", 2);
    t.push_text_row(&["Italy", "Rome"]);
    t.push_text_row(&["France", "Paris"]);
    t.push_text_row(&["Italy", "Paris"]); // the error
    t
}

/// Deterministic stand-in oracle: both paths see identical answers,
/// which is all equivalence needs.
fn degenerate_answer(q: &Question) -> Answer {
    match q {
        Question::Fact { .. } => Answer::Bool(true),
        _ => Answer::Choice(0),
    }
}

fn fresh_crowd() -> Crowd<fn(&Question) -> Answer> {
    Crowd::new(
        CrowdConfig {
            worker_accuracy: 1.0,
            seed: 7,
            ..CrowdConfig::default()
        },
        degenerate_answer as fn(&Question) -> Answer,
    )
    .expect("crowd config is valid")
}

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

/// One step of a generated replay stream.
#[derive(Debug, Clone)]
enum Step {
    /// A batch of table edits, applied (and compared) as one delta. Each
    /// spec is `(op, row_sel, cell_a, cell_b)`; row selectors are
    /// interpreted against the live row count at application time so
    /// every generated edit is in range.
    Edits(Vec<(u8, u8, usize, usize)>),
    /// An externally journaled KB enrichment, by kind.
    Enrich(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // The vendored proptest shim has no `prop_oneof!`; a mapped tuple
    // gives the same mix — kinds 0..3 enrich, the rest edit.
    (
        0u8..8,
        prop::collection::vec(
            (0u8..8, 0u8..8, 0usize..PALETTE.len(), 0usize..PALETTE.len()),
            1..4usize,
        ),
    )
        .prop_map(|(kind, specs)| {
            if kind < 3 {
                Step::Enrich(kind)
            } else {
                Step::Edits(specs)
            }
        })
}

/// Turn edit specs into an in-range [`TableDelta`] for a table that
/// currently has `nrows` rows. `op % 4 == 0` deletes (when possible);
/// everything else upserts, with `row_sel % (nrows + 1) == nrows`
/// meaning append.
fn build_delta(specs: &[(u8, u8, usize, usize)], mut nrows: usize) -> TableDelta {
    let mut delta = TableDelta::default();
    for &(op, row_sel, a, b) in specs {
        if op % 4 == 0 && nrows > 0 {
            delta.edits.push(TableEdit::Delete {
                row: row_sel as usize % nrows,
            });
            nrows -= 1;
        } else {
            let row = row_sel as usize % (nrows + 1);
            if row == nrows {
                nrows += 1;
            }
            delta.edits.push(TableEdit::Upsert {
                row,
                cells: vec![Value::from_cell(PALETTE[a]), Value::from_cell(PALETTE[b])],
            });
        }
    }
    delta
}

/// Mutate `kb` the way an external writer would (all ops captured into
/// the returned journal delta). Every kind is idempotent, so repeated
/// steps in one stream are fine.
fn enrich(kb: &mut Kb, kind: u8) -> EnrichmentDelta {
    kb.begin_delta_capture();
    match kind % 3 {
        0 => {
            // A brand-new pair: flips "Berlin"/"Germany" cells from
            // unresolvable to pattern-conforming.
            let capital = kb.class_by_name("capital").expect("toy kb has capital");
            let country = kb.class_by_name("country").expect("toy kb has country");
            let has_capital = kb
                .property_by_name("hasCapital")
                .expect("toy kb has hasCapital");
            let berlin = kb.add_entity("Berlin", "Berlin", &[capital]);
            let germany = kb.add_entity("Germany", "Germany", &[country]);
            kb.add_fact(germany, has_capital, berlin);
        }
        1 => {
            // An exactly-labelled entity for a previously junk cell — the
            // candidate-set flip in-run enrichment provably cannot cause.
            let capital = kb.class_by_name("capital").expect("toy kb has capital");
            let zz = kb.add_entity("zz", "zz", &[]);
            kb.add_type(zz, capital);
        }
        _ => {
            // A fact edit on existing entities: validates the erroneous
            // base row without touching resolution candidates.
            let has_capital = kb
                .property_by_name("hasCapital")
                .expect("toy kb has hasCapital");
            let italy = kb.resource_by_name("Italy").expect("toy kb has Italy");
            let paris = kb.resource_by_name("Paris").expect("toy kb has Paris");
            kb.add_fact(italy, has_capital, paris);
        }
    }
    kb.take_delta()
}

/// Replay `stream` through one [`DeltaSession`], asserting after every
/// edit batch (and once more at the end) that the incremental result is
/// byte-identical to a full re-clean of the maintained shadow table.
/// Panics on divergence (the shim's prop_asserts are plain asserts).
fn replay(stream: &[Step], kb: Kb, threads: usize, label: &str) {
    let mut kb_inc = kb;
    let table = base_table();
    let mut t_full = table.clone();

    // Bootstrap byte-identity to `Katara::clean` is covered by the
    // delta unit tests and the resolve-equivalence suite; here the
    // bootstrap just warms the session for the replay.
    let katara = Katara::new(config(threads));
    let mut crowd = fresh_crowd();
    let (mut session, _boot) = katara
        .delta_session(&table, &mut kb_inc, &mut crowd)
        .expect("bootstrap clean succeeds on the base table");

    let compare = |session: &mut DeltaSession,
                   kb_inc: &mut Kb,
                   t_full: &Table,
                   delta: &TableDelta,
                   step: usize| {
        let mut kb_full = kb_inc.clone();
        let mut crowd_inc = fresh_crowd();
        let mut crowd_full = fresh_crowd();
        let inc = session.clean_delta(kb_inc, &mut crowd_inc, delta);
        let full = Katara::new(config(threads)).clean(t_full, &mut kb_full, &mut crowd_full);
        assert_eq!(
            format!("{inc:?}"),
            format!("{full:?}"),
            "{label}: incremental and full reports diverge at step {step} ({threads} threads)"
        );
        assert_eq!(
            format!("{:?}", session.table()),
            format!("{t_full:?}"),
            "{label}: session table diverged from the shadow table at step {step}"
        );
    };

    for (i, step) in stream.iter().enumerate() {
        match step {
            Step::Edits(specs) => {
                let delta = build_delta(specs, t_full.num_rows());
                delta
                    .apply(&mut t_full)
                    .expect("generated edits are in range by construction");
                compare(&mut session, &mut kb_inc, &t_full, &delta, i);
            }
            Step::Enrich(kind) => {
                let d = enrich(&mut kb_inc, *kind);
                assert!(
                    !session.is_current(&kb_inc) || d.is_empty(),
                    "{label}: a non-empty journal delta must stale the snapshot"
                );
                session.apply_enrichment(&kb_inc, &d);
                assert!(
                    session.is_current(&kb_inc),
                    "{label}: apply_enrichment must bring the snapshot current"
                );
            }
        }
    }
    // Final empty-delta run so streams ending in enrichment are compared.
    compare(
        &mut session,
        &mut kb_inc,
        &t_full,
        &TableDelta::default(),
        stream.len(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn incremental_replay_matches_full_reclean(
        stream in prop::collection::vec(step_strategy(), 0..5usize),
    ) {
        for &threads in &POOLS {
            replay(&stream, toy_kb(), threads, "generated");
        }
    }
}

/// A deterministic smoke stream covering every step kind, kept outside
/// proptest so a regression names the exact scenario.
#[test]
fn canonical_stream_replays_identically() {
    let stream = [
        Step::Edits(vec![(1, 2, 1, 2)]), // fix the erroneous row
        Step::Enrich(0),                 // Berlin/Germany appear
        Step::Edits(vec![(1, 3, 6, 5), (0, 0, 0, 0)]), // append the new pair, delete row 0
        Step::Enrich(2),                 // Italy->Paris becomes a fact
        Step::Edits(vec![(1, 0, 1, 4)]), // overwrite with the now-valid pair
    ];
    for &threads in &POOLS {
        replay(&stream, toy_kb(), threads, "canonical");
    }
}
