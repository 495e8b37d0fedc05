//! The incremental cleaning engine: delta-driven re-clean over streaming
//! table edits and journaled KB enrichment.
//!
//! A [`DeltaSession`] keeps one table, its [`TableResolution`] snapshot
//! and the caches of the pipeline's one cleaning run alive between runs:
//! the discovery window's support counts with their folded candidate
//! lists, the rows whose Full match carries over into annotation, and
//! the repair index with its per-row repairs. [`Katara::delta_session`]
//! runs the bootstrap clean and keeps what it built. Applying a
//! [`TableDelta`] (tuple upserts and deletes) then patches those
//! structures in place — only genuinely new distinct values are resolved
//! against the KB, only the candidate lists whose support counts moved
//! are re-folded, only the erroneous rows whose cells (or covering
//! pattern, or KB) changed are re-repaired — and hands them to the same
//! run [`Katara::clean`] uses. The produced [`CleaningReport`] is
//! **byte-identical** (`format!("{report:?}")`) to a full re-clean of
//! the edited table against the same KB state with an identically
//! seeded crowd.
//!
//! # Delta algebra
//!
//! Two delta kinds drive invalidation (DESIGN.md §5j has the full
//! matrix):
//!
//! * **Table deltas** ([`TableDelta`]): an edit inside the discovery
//!   scan window moves that row's support counts and dirties exactly the
//!   column and column-pair lists whose counts moved (an append or
//!   delete moves a row into or out of the window). An edit that changes
//!   a row also dirties that row's annotation and repair caches; edits
//!   outside the window leave discovery untouched.
//! * **KB deltas** ([`EnrichmentDelta`]): annotation patches the
//!   session's snapshot with the run's own enrichment as it writes
//!   ([`TableResolution::apply_enrichment`] before every read, so the
//!   snapshot is never read stale), and hands it back current; because
//!   tf-idf inputs (class sizes, property subject counts) may have
//!   moved, *all* folded lists are re-folded on the next run — a cheap
//!   arithmetic pass over the maintained counts, with zero KB probes.
//!   External journaled deltas go through
//!   [`DeltaSession::apply_enrichment`], which additionally drops the
//!   full-match annotation cache (an external writer can flip the
//!   exact-label short-circuit, which in-run enrichment provably
//!   cannot).
//!
//! # Equivalence argument
//!
//! Discovery folds are canonical (per distinct value, in normalized
//! string order — see [`crate::candidates`]), so re-folding maintained
//! counts is bit-identical to re-scanning the window. Validation always
//! re-runs (crowd state is not cacheable). Annotation reuses only rows
//! that previously matched [`TupleMatch::Full`] under a validated
//! pattern of the *same shape* (nodes and edges; matching never reads
//! the score) with unchanged cells and monotone KB growth — such rows
//! ask no crowd questions and trigger no enrichment, so skipping them is
//! output-invisible. Repair results are per-row deterministic functions
//! of (row cells, effective pattern shape, KB version) and are reused
//! exactly when that triple is unchanged.

use std::borrow::Cow;

use katara_crowd::{Crowd, Oracle};
use katara_kb::{EnrichmentDelta, Kb};
use katara_obs::{Counter, Span};
use katara_table::{Table, TableDelta, TableEdit, Value};

use crate::annotation::{AnnotationResult, TupleStatus};
use crate::candidates::WindowCounts;
use crate::error::KataraError;
use crate::pattern::{TablePattern, TupleMatch};
use crate::pipeline::{CleaningReport, Katara, KataraConfig, RunCaches};
use crate::resolve::TableResolution;

/// Per-delta edit accounting, exported as `delta.*` counters.
#[derive(Debug, Default)]
struct EditStats {
    /// Edits that actually changed the table.
    touched: usize,
    /// Upserts whose cells all equalled the existing row.
    noop: usize,
    /// Distinct values newly resolved against the KB.
    values_resolved: usize,
}

/// A long-lived incremental cleaning session over one table and one KB.
///
/// Create one with [`Katara::delta_session`] (a full clean whose
/// snapshot and caches the session keeps), then feed it [`TableDelta`]s
/// via [`DeltaSession::clean_delta`] and externally journaled KB deltas
/// via [`DeltaSession::apply_enrichment`]. The session owns its copy of
/// the table; read it back with [`DeltaSession::table`].
pub struct DeltaSession {
    katara: Katara,
    table: Table,
    /// Always owned; held as a `Cow` so annotation patches it in place
    /// through the same copy-on-write path that copies a shared one.
    resolution: Cow<'static, TableResolution>,
    /// The run's caches. Bootstrap leaves `window` and `full_rows` set.
    caches: RunCaches,
}

impl DeltaSession {
    /// The session's current table (edits applied in order).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The session configuration.
    pub fn config(&self) -> &KataraConfig {
        self.katara.config()
    }

    /// Whether the snapshot is current for `kb` — `false` means a
    /// journaled KB delta has not been applied via
    /// [`Self::apply_enrichment`] yet.
    pub fn is_current(&self, kb: &Kb) -> bool {
        self.resolution.is_current(kb)
    }

    /// Patch the session for an externally applied [`EnrichmentDelta`]
    /// (`kb` must already contain it; apply missed journal entries in
    /// order). Only the values the delta names are re-resolved. The
    /// full-match annotation cache is dropped — an external writer can
    /// add an exactly-labelled entity that flips the candidate
    /// short-circuit, something in-run enrichment provably cannot do.
    pub fn apply_enrichment(&mut self, kb: &Kb, delta: &EnrichmentDelta) {
        self.resolution.to_mut().apply_enrichment(kb, &delta.ops);
        if !delta.is_empty() {
            self.window().mark_all_dirty();
            self.full_rows().pattern = None;
        }
    }

    /// Apply `delta` to the session's table and re-clean incrementally.
    ///
    /// The report is byte-identical to [`Katara::clean`] on the edited
    /// table against the same KB state with an identically seeded crowd
    /// (deadline-expired runs excepted: the full path discards partial
    /// repair work the session may have cached). The KB is mutated by
    /// enrichment exactly as a full run would.
    ///
    /// On error the already-applied prefix of `delta` stays applied —
    /// the session remains internally consistent and a follow-up
    /// `clean_delta` with an empty delta completes the re-clean.
    pub fn clean_delta<O: Oracle>(
        &mut self,
        kb: &mut Kb,
        crowd: &mut Crowd<O>,
        delta: &TableDelta,
    ) -> Result<CleaningReport, KataraError> {
        self.katara.open_run(crowd)?;
        let rec = self.katara.config().recorder.clone();
        let _root = Span::enter(rec.as_ref(), "clean_delta");
        // (0) Fold the table delta into the live session state.
        {
            let _span = Span::enter(rec.as_ref(), "delta");
            if !self.resolution.is_current(kb) {
                // The caller skipped a journaled KB delta; fall back to a
                // fresh resolve (sound, not fast).
                self.resync(kb);
            }
            let mut stats = EditStats::default();
            for (idx, edit) in delta.edits.iter().enumerate() {
                self.apply_edit(kb, idx, edit, &mut stats)?;
            }
            rec.incr_by(Counter::DeltaTuplesTouched, stats.touched as u64);
            rec.incr_by(Counter::DeltaNoopEdits, stats.noop as u64);
            rec.incr_by(Counter::DeltaValuesResolved, stats.values_resolved as u64);
        }
        self.katara.run(
            &self.table,
            kb,
            crowd,
            &mut self.resolution,
            &mut self.caches,
        )
    }

    fn window(&mut self) -> &mut WindowCounts {
        self.caches
            .window
            .as_mut()
            .expect("the bootstrap run leaves a window")
    }

    fn full_rows(&mut self) -> &mut FullRows {
        self.caches
            .full_rows
            .as_mut()
            .expect("a session carries Full rows over")
    }

    /// The distinct-value ids of `row`, one per column.
    fn row_ids(&self, row: usize) -> Vec<Option<u32>> {
        (0..self.table.num_columns())
            .map(|c| self.resolution.value_id(c, row))
            .collect()
    }

    /// Apply one edit to the table, the resolution, the window counts,
    /// and the per-row caches.
    fn apply_edit(
        &mut self,
        kb: &Kb,
        idx: usize,
        edit: &TableEdit,
        stats: &mut EditStats,
    ) -> Result<(), KataraError> {
        let nrows = self.table.num_rows();
        let window_rows = self.window().rows();
        match edit {
            TableEdit::Upsert { row, cells } => {
                let ncols = self.table.num_columns();
                if cells.len() != ncols {
                    return Err(KataraError::BadDelta {
                        edit: idx,
                        detail: format!(
                            "upsert has {} cells, table has {ncols} columns",
                            cells.len(),
                        ),
                    });
                }
                let row = *row;
                if row > nrows {
                    return Err(KataraError::BadDelta {
                        edit: idx,
                        detail: format!("upsert row {row} out of range (table has {nrows} rows)"),
                    });
                }
                if row == nrows {
                    // Append: the new row enters the window iff it fits.
                    let strs: Vec<Option<&str>> = cells.iter().map(Value::as_str).collect();
                    stats.values_resolved += self.resolution.to_mut().push_row(kb, &strs);
                    self.table.push_row(cells.clone());
                    self.full_rows().rows.push(false);
                    stats.touched += 1;
                    if row < self.config().candidates.max_rows {
                        let ids = self.row_ids(row);
                        self.window().patch_row(None, Some(&ids));
                    }
                } else {
                    let old_ids = self.row_ids(row);
                    let mut new_ids = vec![None; ncols];
                    let mut raw_changed = false;
                    for (c, v) in cells.iter().enumerate() {
                        let patch = self.resolution.to_mut().set_cell(kb, c, row, v.as_str());
                        stats.values_resolved += usize::from(patch.resolved);
                        new_ids[c] = patch.new;
                        let old_v = self.table.set_cell(row, c, v.clone());
                        raw_changed |= old_v != *v;
                    }
                    if raw_changed {
                        stats.touched += 1;
                        self.full_rows().rows[row] = false;
                        self.caches.repairs.rows.remove(&row);
                    } else {
                        stats.noop += 1;
                    }
                    if row < window_rows {
                        self.window().patch_row(Some(&old_ids), Some(&new_ids));
                    }
                }
            }
            TableEdit::Delete { row } => {
                let row = *row;
                if row >= nrows {
                    return Err(KataraError::BadDelta {
                        edit: idx,
                        detail: format!("delete row {row} out of range (table has {nrows} rows)"),
                    });
                }
                if row < window_rows {
                    // Deleting inside a capped window pulls the first
                    // out-of-window row in (indices shift up by one).
                    let old_ids = self.row_ids(row);
                    let boundary = (nrows > window_rows).then(|| self.row_ids(window_rows));
                    self.window().patch_row(Some(&old_ids), boundary.as_deref());
                }
                self.table.remove_row(row);
                self.resolution.to_mut().remove_row(row);
                self.full_rows().rows.remove(row);
                let repairs = &mut self.caches.repairs.rows;
                *repairs = std::mem::take(repairs)
                    .into_iter()
                    .filter(|&(r, _)| r != row)
                    .map(|(r, v)| (if r > row { r - 1 } else { r }, v))
                    .collect();
                stats.touched += 1;
            }
        }
        Ok(())
    }

    /// Stale-snapshot fallback: rebuild the resolution, re-count the
    /// window and drop every other cache. Sound whatever the caller
    /// missed, at full-rebuild cost.
    fn resync(&mut self, kb: &Kb) {
        let config = self.katara.config();
        let max_rows = config.candidates.max_rows;
        self.resolution = Cow::Owned(
            TableResolution::build(&self.table, kb, max_rows)
                .with_recorder(config.recorder.clone()),
        );
        self.caches.window = Some(WindowCounts::scan(
            &self.resolution,
            self.table.num_columns(),
            max_rows.min(self.table.num_rows()),
        ));
        self.full_rows().pattern = None;
        self.caches.repairs = Default::default();
    }
}

/// The Full-row carry-over between a session's runs: rows guaranteed to
/// still match `pattern` [`TupleMatch::Full`], which annotation under a
/// validated pattern of the same shape skips.
#[derive(Debug, Default)]
pub(crate) struct FullRows {
    /// The validated pattern `rows` was computed under.
    pattern: Option<TablePattern>,
    /// One flag per table row; edits clear the flags of the rows they
    /// touch.
    rows: Vec<bool>,
}

impl FullRows {
    /// True when the rows were computed under a pattern of `validated`'s
    /// shape: matching reads nodes and edges, never the score.
    fn computed_under(&self, validated: &TablePattern) -> bool {
        self.pattern
            .as_ref()
            .is_some_and(|p| p.same_shape(validated))
    }

    /// The carried-over rows, if they were computed under `validated`.
    pub(crate) fn for_pattern(&self, validated: &TablePattern) -> Option<&[bool]> {
        self.computed_under(validated)
            .then_some(self.rows.as_slice())
    }

    /// Recompute the carry-over after a run: a row is cached iff it was
    /// KB- or crowd-validated *and* matches the validated pattern `Full`
    /// against the post-run KB. Feedback-stripped and deadline-degraded
    /// runs cache nothing (their effective pattern or row statuses
    /// diverge from the pass the cache feeds).
    pub(crate) fn refresh(
        &mut self,
        kb: &Kb,
        table: &Table,
        resolution: &TableResolution,
        validated: &TablePattern,
        annotation: &AnnotationResult,
        deadline_expired: bool,
    ) {
        let prev = std::mem::take(&mut self.rows);
        let prev_valid = self.computed_under(validated);
        self.rows = vec![false; table.num_rows()];
        if !annotation.feedback_stripped.is_empty() || deadline_expired {
            self.pattern = None;
            return;
        }
        for t in &annotation.tuples {
            if !matches!(
                t.status,
                TupleStatus::ValidatedByKb | TupleStatus::ValidatedWithCrowd
            ) {
                continue;
            }
            // A previously cached Full row stays Full: its cells are
            // unchanged (edits clear the flag) and in-run enrichment is
            // monotone for matching. Everything else is re-checked
            // against the memoized snapshot.
            self.rows[t.row] = (prev_valid && prev.get(t.row).copied().unwrap_or(false))
                || validated
                    .match_tuple_resolved(kb, table.row(t.row), Some((resolution, t.row)))
                    .outcome
                    == TupleMatch::Full;
        }
        self.pattern = Some(validated.clone());
    }
}

impl Katara {
    /// Bootstrap an incremental [`DeltaSession`] under this pipeline's
    /// configuration: one full clean (byte-identical to
    /// [`Katara::clean`]) whose snapshot, discovery window, Full rows and
    /// repair cache the returned session carries forward into
    /// [`DeltaSession::clean_delta`] runs.
    pub fn delta_session<O: Oracle>(
        &self,
        table: &Table,
        kb: &mut Kb,
        crowd: &mut Crowd<O>,
    ) -> Result<(DeltaSession, CleaningReport), KataraError> {
        let mut caches = RunCaches {
            full_rows: Some(FullRows::default()),
            ..RunCaches::default()
        };
        let (report, snapshot) = self.clean_caching(table, kb, crowd, None, &mut caches)?;
        let session = DeltaSession {
            katara: self.clone(),
            table: table.clone(),
            resolution: Cow::Owned(snapshot.into_owned()),
            caches,
        };
        Ok((session, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::AnnotationConfig;
    use crate::candidates::{discover_candidates_resolved, CandidateConfig};
    use katara_crowd::{Answer, CrowdConfig, Question};
    use katara_obs::RunRecorder;
    use std::sync::Arc;

    /// The pipeline test world: countries, capitals, players; the KB
    /// misses one capital fact and the table has one true error.
    fn setting() -> (Kb, Table) {
        world(false)
    }

    /// [`setting`] where Italy, Spain and France are also `economy`s and
    /// twenty more entities are only `country`s. Column 1's `country` then
    /// sits below the top of its tf-idf list, so the pattern's score moves
    /// with the column's values while its shape stays.
    fn drift_setting() -> (Kb, Table) {
        world(true)
    }

    fn world(economies: bool) -> (Kb, Table) {
        let mut b = katara_kb::KbBuilder::new().with_name("mini-yago");
        let person = b.class("person");
        let country = b.class("country");
        let capital = b.class("capital");
        let nationality = b.property("nationality");
        let has_capital = b.property("hasCapital");
        let economy = economies.then(|| b.class("economy"));
        if economies {
            for i in 0..20 {
                b.entity(&format!("Land {i}"), &[country]);
            }
        }
        let pairs = [
            ("Rossi", "Italy", "Rome"),
            ("Klate", "S. Africa", "Pretoria"),
            ("Pirlo", "Italy", "Rome"),
            ("Ramos", "Spain", "Madrid"),
            ("Benzema", "France", "Paris"),
        ];
        for (p, c, cap) in pairs {
            let rp = b.entity(p, &[person]);
            let rc = match economy {
                Some(e) if c != "S. Africa" => b.entity(c, &[country, e]),
                _ => b.entity(c, &[country]),
            };
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

    fn crowd() -> Crowd<impl Oracle> {
        Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                ..CrowdConfig::default()
            },
            oracle(),
        )
        .unwrap()
    }

    fn upsert(row: usize, cells: &[&str]) -> TableEdit {
        TableEdit::Upsert {
            row,
            cells: cells.iter().map(|s| Value::from_cell(s)).collect(),
        }
    }

    /// Incremental replay vs a full re-clean of the edited table against
    /// the same KB state, with identically seeded crowds.
    fn assert_replay_matches(deltas: &[TableDelta]) {
        let (mut kb_inc, t0) = setting();
        let mut c = crowd();
        let (mut session, boot) = Katara::default()
            .delta_session(&t0, &mut kb_inc, &mut c)
            .unwrap();

        // Bootstrap itself is byte-identical to a plain full clean.
        let (mut kb_ref, _) = setting();
        let full0 = Katara::default()
            .clean(&t0, &mut kb_ref, &mut crowd())
            .unwrap();
        assert_eq!(format!("{boot:?}"), format!("{full0:?}"));

        let mut t_full = t0.clone();
        for delta in deltas {
            let mut kb_full = kb_inc.clone();
            delta.apply(&mut t_full).unwrap();
            let full = Katara::default()
                .clean(&t_full, &mut kb_full, &mut crowd())
                .unwrap();
            let inc = session
                .clean_delta(&mut kb_inc, &mut crowd(), delta)
                .unwrap();
            assert_eq!(format!("{inc:?}"), format!("{full:?}"));
            assert_eq!(
                format!("{:?}", session.table()),
                format!("{t_full:?}"),
                "session table must track the edits"
            );
        }
    }

    #[test]
    fn empty_delta_replays_identically() {
        assert_replay_matches(&[TableDelta::default()]);
    }

    #[test]
    fn edit_stream_replays_identically() {
        assert_replay_matches(&[
            // Fix the known error.
            TableDelta {
                edits: vec![upsert(2, &["Pirlo", "Italy", "Rome"])],
            },
            // Introduce a fresh error and append a new row.
            TableDelta {
                edits: vec![
                    upsert(0, &["Rossi", "Italy", "Paris"]),
                    upsert(4, &["Benzema", "France", "Paris"]),
                ],
            },
            // Delete the first row, then overwrite the shifted ones.
            TableDelta {
                edits: vec![
                    TableEdit::Delete { row: 0 },
                    upsert(0, &["Klate", "S. Africa", "Pretoria"]),
                ],
            },
        ]);
    }

    #[test]
    fn maintained_counts_match_a_fresh_scan() {
        let (mut kb, t) = setting();
        let mut c = crowd();
        let (mut session, _) = Katara::default()
            .delta_session(&t, &mut kb, &mut c)
            .unwrap();
        let delta = TableDelta {
            edits: vec![
                upsert(2, &["Pirlo", "Italy", "Rome"]),
                upsert(4, &["Benzema", "France", "Paris"]),
                TableEdit::Delete { row: 0 },
            ],
        };
        session.clean_delta(&mut kb, &mut crowd(), &delta).unwrap();
        let cfg = CandidateConfig::default();
        let fresh = discover_candidates_resolved(&session.table, &kb, &session.resolution, &cfg);
        assert_eq!(session.caches.window.unwrap().candidate_set(), fresh);
    }

    #[test]
    fn delta_run_skips_discovery_probes_and_accounts_edits() {
        let (mut kb, t) = setting();
        let rec = Arc::new(RunRecorder::new());
        let config = KataraConfig {
            recorder: rec.clone(),
            annotation: AnnotationConfig { enrich_kb: false },
            ..KataraConfig::default()
        };
        let mut c = crowd();
        let (mut session, _) = Katara::new(config)
            .delta_session(&t, &mut kb, &mut c)
            .unwrap();
        let probes_after_boot = rec.counter_total(Counter::DiscoveryTypeProbes)
            + rec.counter_total(Counter::DiscoveryRelProbes);
        assert!(probes_after_boot > 0, "bootstrap is a full scan");

        let delta = TableDelta {
            edits: vec![
                upsert(2, &["Pirlo", "Italy", "Rome"]),
                upsert(3, &["Ramos", "Spain", "Madrid"]), // noop
            ],
        };
        session.clean_delta(&mut kb, &mut crowd(), &delta).unwrap();
        let probes_after_delta = rec.counter_total(Counter::DiscoveryTypeProbes)
            + rec.counter_total(Counter::DiscoveryRelProbes);
        assert_eq!(
            probes_after_delta, probes_after_boot,
            "the delta path re-folds cached counts instead of re-probing"
        );
        assert_eq!(rec.counter_total(Counter::DeltaTuplesTouched), 1);
        assert_eq!(rec.counter_total(Counter::DeltaNoopEdits), 1);
        assert!(rec.counter_total(Counter::DeltaPatternsRescored) > 0);
    }

    /// The bootstrap is one clean: it folds the discovery window once,
    /// exactly like a plain clean of the same input (only the Full-row
    /// refresh re-matches rows, so candidate lookups may be higher).
    #[test]
    fn bootstrap_discovers_once() {
        let lookups = |boot: bool| {
            let (mut kb, t) = setting();
            let rec = Arc::new(RunRecorder::new());
            let katara = Katara::new(KataraConfig {
                recorder: rec.clone(),
                ..KataraConfig::default()
            });
            if boot {
                katara.delta_session(&t, &mut kb, &mut crowd()).unwrap();
            } else {
                katara.clean(&t, &mut kb, &mut crowd()).unwrap();
            }
            (
                rec.counter_total(Counter::ResolveTypesLookups),
                rec.counter_total(Counter::ResolvePairLookups),
            )
        };
        let (types, pairs) = lookups(false);
        assert!(types > 0 && pairs > 0);
        assert_eq!(lookups(true), (types, pairs));
    }

    /// A replay that keeps the effective pattern and the KB version
    /// reuses the bootstrap's repair index, and repairs afresh only the
    /// erroneous rows whose cells changed.
    #[test]
    fn replay_reuses_the_repair_cache() {
        let (mut kb, t) = setting();
        let rec = Arc::new(RunRecorder::new());
        let config = KataraConfig {
            recorder: rec.clone(),
            ..KataraConfig::default()
        };
        let (mut session, boot) = Katara::new(config)
            .delta_session(&t, &mut kb, &mut crowd())
            .unwrap();
        assert_eq!(boot.annotation.erroneous_rows(), vec![2]);
        let graphs = rec.counter_total(Counter::RepairGraphsBuilt);
        assert!(graphs > 0, "the bootstrap builds the repair index");
        let version = kb.version();

        // A second error on row 0, and a byte-identical rewrite of row 3.
        let delta = TableDelta {
            edits: vec![
                upsert(0, &["Rossi", "Italy", "Paris"]),
                upsert(3, &["Ramos", "Spain", "Madrid"]),
            ],
        };
        let report = session.clean_delta(&mut kb, &mut crowd(), &delta).unwrap();
        assert_eq!(kb.version(), version, "the replay enriches nothing");
        assert_eq!(report.pattern, boot.pattern);
        assert_eq!(report.annotation.erroneous_rows(), vec![0, 2]);
        assert_eq!(report.repairs.len(), 2);
        assert_eq!(
            rec.counter_total(Counter::RepairGraphsBuilt),
            graphs,
            "same effective pattern and KB version: the index is reused"
        );
        assert_eq!(
            rec.counter_total(Counter::DeltaTuplesRepaired),
            1,
            "only the edited erroneous row is repaired afresh"
        );
    }

    /// A session whose bootstrap has nothing to repair builds no repair
    /// index. The first replay that makes an erroneous row builds it, and
    /// a later replay under the same key reuses it.
    #[test]
    fn the_first_erroneous_replay_builds_the_index_once() {
        let (mut kb, mut t) = setting();
        t.set_cell(2, 2, Value::from_cell("Rome"));
        let rec = Arc::new(RunRecorder::new());
        let config = KataraConfig {
            recorder: rec.clone(),
            ..KataraConfig::default()
        };
        let (mut session, boot) = Katara::new(config)
            .delta_session(&t, &mut kb, &mut crowd())
            .unwrap();
        assert!(boot.annotation.erroneous_rows().is_empty());
        let graphs = || rec.counter_total(Counter::RepairGraphsBuilt);
        assert_eq!(graphs(), 0, "nothing to repair: no index");
        let version = kb.version();

        let first = TableDelta {
            edits: vec![upsert(0, &["Rossi", "Italy", "Paris"])],
        };
        let report = session.clean_delta(&mut kb, &mut crowd(), &first).unwrap();
        assert_eq!(report.annotation.erroneous_rows(), vec![0]);
        assert_eq!(report.repairs.len(), 1);
        let built = graphs();
        assert!(built > 0, "the first erroneous row builds the index");

        let second = TableDelta {
            edits: vec![upsert(3, &["Ramos", "Spain", "Rome"])],
        };
        let again = session.clean_delta(&mut kb, &mut crowd(), &second).unwrap();
        assert_eq!(kb.version(), version, "the replays enrich nothing");
        assert!(again.pattern.same_shape(&report.pattern));
        assert_eq!(again.annotation.erroneous_rows(), vec![0, 3]);
        assert_eq!(again.repairs.len(), 2);
        assert_eq!(graphs(), built, "the same key: the index is reused");
    }

    /// A replay whose edits move only the discovery score keeps the
    /// repair index and the Full rows: both depend on the pattern's nodes
    /// and edges, never on its score (§6.2).
    #[test]
    fn score_drift_keeps_the_repair_index_and_full_rows() {
        let boot = || {
            let (mut kb, t) = drift_setting();
            let rec = Arc::new(RunRecorder::new());
            let config = KataraConfig {
                recorder: rec.clone(),
                ..KataraConfig::default()
            };
            let (session, report) = Katara::new(config)
                .delta_session(&t, &mut kb, &mut crowd())
                .unwrap();
            (kb, rec, session, report)
        };
        // One more fully matching row: more support, the same shape.
        let delta = TableDelta {
            edits: vec![upsert(4, &["Benzema", "France", "Paris"])],
        };
        let replay = |kb: &mut Kb, rec: &RunRecorder, session: &mut DeltaSession| {
            let (graphs, lookups) = (
                rec.counter_total(Counter::RepairGraphsBuilt),
                rec.counter_total(Counter::ResolveCandidatesLookups),
            );
            let report = session.clean_delta(kb, &mut crowd(), &delta).unwrap();
            let built = rec.counter_total(Counter::RepairGraphsBuilt) - graphs;
            let read = rec.counter_total(Counter::ResolveCandidatesLookups) - lookups;
            (report, built, read)
        };

        let (mut kb, rec, mut session, before) = boot();
        let version = kb.version();
        let (after, built, carried_lookups) = replay(&mut kb, &rec, &mut session);
        assert_eq!(kb.version(), version, "the replay enriches nothing");
        assert!(after.pattern.same_shape(&before.pattern));
        assert_ne!(
            after.pattern.score().to_bits(),
            before.pattern.score().to_bits(),
            "the edit must move the score"
        );
        assert_eq!(built, 0, "the repair index survives a score drift");

        // The same replay on a session whose Full rows were dropped
        // re-matches every row; the carried session must not.
        let (mut kb2, rec2, mut dropped, _) = boot();
        dropped.full_rows().pattern = None;
        let (same, _, all_lookups) = replay(&mut kb2, &rec2, &mut dropped);
        assert_eq!(format!("{same:?}"), format!("{after:?}"));
        assert!(
            carried_lookups < all_lookups,
            "Full rows carried over: {carried_lookups} lookups vs {all_lookups}"
        );
    }

    #[test]
    fn bad_edits_error_and_leave_a_consistent_session() {
        let (mut kb, t) = setting();
        let mut c = crowd();
        let (mut session, _) = Katara::default()
            .delta_session(&t, &mut kb, &mut c)
            .unwrap();
        let bad = TableDelta {
            edits: vec![
                upsert(2, &["Pirlo", "Italy", "Rome"]),
                TableEdit::Delete { row: 99 },
            ],
        };
        let err = session
            .clean_delta(&mut kb, &mut crowd(), &bad)
            .unwrap_err();
        assert!(matches!(err, KataraError::BadDelta { edit: 1, .. }));
        // The applied prefix persists; an empty delta completes the run
        // and matches a full re-clean of the partially edited table.
        let mut t_now = t.clone();
        t_now.set_cell(2, 2, Value::from_cell("Rome"));
        let mut kb_full = kb.clone();
        let full = Katara::default()
            .clean(&t_now, &mut kb_full, &mut crowd())
            .unwrap();
        let inc = session
            .clean_delta(&mut kb, &mut crowd(), &TableDelta::default())
            .unwrap();
        assert_eq!(format!("{inc:?}"), format!("{full:?}"));
    }

    #[test]
    fn external_enrichment_patch_keeps_replay_identical() {
        let (mut kb_inc, t0) = setting();
        let mut c = crowd();
        let (mut session, _) = Katara::default()
            .delta_session(&t0, &mut kb_inc, &mut c)
            .unwrap();

        // An external writer lands a journaled delta: a new capital
        // entity plus its fact.
        kb_inc.begin_delta_capture();
        let _ = kb_inc.add_entity("Lisbon", "Lisbon", &[]);
        let _ = kb_inc.add_entity("Portugal", "Portugal", &[]);
        let ext = kb_inc.take_delta();
        assert!(!ext.is_empty());
        assert!(!session.is_current(&kb_inc));
        session.apply_enrichment(&kb_inc, &ext);
        assert!(session.is_current(&kb_inc));

        let delta = TableDelta {
            edits: vec![upsert(4, &["Ronaldo", "Portugal", "Lisbon"])],
        };
        let mut t_full = t0.clone();
        delta.apply(&mut t_full).unwrap();
        let mut kb_full = kb_inc.clone();
        let full = Katara::default()
            .clean(&t_full, &mut kb_full, &mut crowd())
            .unwrap();
        let inc = session
            .clean_delta(&mut kb_inc, &mut crowd(), &delta)
            .unwrap();
        assert_eq!(format!("{inc:?}"), format!("{full:?}"));
    }

    #[test]
    fn stale_snapshot_resyncs_instead_of_diverging() {
        let (mut kb_inc, t0) = setting();
        let mut c = crowd();
        let (mut session, _) = Katara::default()
            .delta_session(&t0, &mut kb_inc, &mut c)
            .unwrap();
        // Mutate the KB *without* telling the session.
        kb_inc.add_entity("Lisbon", "Lisbon", &[]);
        assert!(!session.is_current(&kb_inc));
        let mut kb_full = kb_inc.clone();
        let full = Katara::default()
            .clean(&t0, &mut kb_full, &mut crowd())
            .unwrap();
        let inc = session
            .clean_delta(&mut kb_inc, &mut crowd(), &TableDelta::default())
            .unwrap();
        assert_eq!(format!("{inc:?}"), format!("{full:?}"));
    }
}
