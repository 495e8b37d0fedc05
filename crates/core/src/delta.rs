//! The incremental cleaning engine: delta-driven re-clean over streaming
//! table edits and journaled KB enrichment.
//!
//! A [`DeltaSession`] keeps one table, its [`TableResolution`] snapshot,
//! and the per-window discovery support counts alive across cleaning
//! runs. Applying a [`TableDelta`] (tuple upserts and deletes) patches
//! those structures in place — only genuinely new distinct values are
//! resolved against the KB, only the candidate lists whose supporting
//! tuples changed are re-folded, only the erroneous rows whose cells (or
//! covering pattern, or KB) changed are re-repaired. The produced
//! [`CleaningReport`] is **byte-identical** (`format!("{report:?}")`) to
//! a full re-clean of the edited table against the same KB state with an
//! identically seeded crowd.
//!
//! # Delta algebra
//!
//! Two delta kinds drive invalidation (DESIGN.md §5j has the full
//! matrix):
//!
//! * **Table deltas** ([`TableDelta`]): an upsert dirties exactly the
//!   columns whose cell changed inside the discovery scan window (their
//!   support counts shift) plus the edited row's annotation/repair
//!   caches; appends and deletes shift the window, dirtying every list.
//!   Edits outside the window leave discovery untouched but still dirty
//!   the row.
//! * **KB deltas** ([`EnrichmentDelta`]): annotation patches the
//!   session's snapshot with the run's own enrichment as it writes
//!   ([`TableResolution::apply_enrichment`] before every read, so the
//!   snapshot is never read stale), and hands it back current; because
//!   tf-idf inputs (class sizes, property subject counts) may have
//!   moved, *all* cached lists are re-folded on the next run — a cheap
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
//! that previously matched [`TupleMatch::Full`] under the *same*
//! validated pattern with unchanged cells and monotone KB growth — such
//! rows ask no crowd questions and trigger no enrichment, so skipping
//! them is output-invisible. Repair results are per-row deterministic
//! functions of (row cells, effective pattern, KB version) and are
//! reused exactly when that triple is unchanged.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use katara_crowd::{Crowd, CrowdStats, Oracle};
use katara_exec::Deadline;
use katara_kb::{EnrichmentDelta, Kb};
use katara_obs::{Counter, Gauge, NoopRecorder, Span};
use katara_table::{Table, TableDelta, TableEdit, Value};

use crate::annotation::{
    annotate_resolved_cached, AnnotationConfig, AnnotationResult, TupleStatus,
};
use crate::candidates::{
    fold_rels_from_counts, fold_types_from_counts, rank_rels, rank_types, CandidateSet,
    RelCandidate, TypeCandidate,
};
use crate::error::KataraError;
use crate::pattern::{TablePattern, TupleMatch};
use crate::pipeline::{
    record_phase_questions, CleaningReport, DegradationReport, Katara, KataraConfig,
};
use crate::rank_join::{discover_topk_with_stats, DiscoveryConfig};
use crate::repair::{generate_repairs_resolved, Repair, RepairConfig, RepairIndex};
use crate::resolve::TableResolution;
use crate::validation::{validate_patterns, ValidationConfig, ValidationOutcome};

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
/// Create one with [`DeltaSession::bootstrap`] (a full clean that warms
/// every cache), then feed it [`TableDelta`]s via
/// [`DeltaSession::clean_delta`] and externally journaled KB deltas via
/// [`DeltaSession::apply_enrichment`]. The session owns its copy of the
/// table; read it back with [`DeltaSession::table`].
pub struct DeltaSession {
    config: KataraConfig,
    table: Table,
    /// Always owned; held as a `Cow` so annotation patches it in place
    /// through the same copy-on-write path that copies a shared one.
    resolution: Cow<'static, TableResolution>,
    ncols: usize,
    /// Ordered column pairs in the pipeline's canonical i-outer/j-inner
    /// order; all `pair_*` vectors below are indexed by position here.
    pairs: Vec<(usize, usize)>,
    /// Per column: occurrences of each distinct-value id within the
    /// discovery scan window.
    col_counts: Vec<HashMap<u32, usize>>,
    col_non_null: Vec<usize>,
    /// Per ordered pair: occurrences of each (id, id) combination within
    /// the window.
    pair_counts: Vec<HashMap<(u32, u32), usize>>,
    pair_non_null: Vec<usize>,
    /// Cached ranked candidate lists, re-folded only when dirty.
    col_lists: Vec<Vec<TypeCandidate>>,
    pair_lists: Vec<Vec<RelCandidate>>,
    dirty_cols: Vec<bool>,
    dirty_pairs: Vec<bool>,
    /// Set when the KB changed since the lists were folded: tf-idf
    /// inputs may have moved, so every list re-folds (no probes — the
    /// fold reads memoized snapshot tiers).
    needs_full_refold: bool,
    /// The validated pattern `full_rows` was computed under.
    full_pattern: Option<TablePattern>,
    /// Rows guaranteed to still match `full_pattern` [`TupleMatch::Full`].
    full_rows: Vec<bool>,
    /// Repair caches, valid while (pattern, KB version) are unchanged.
    repair_pattern: Option<TablePattern>,
    repair_kb_version: u64,
    repair_index: Option<RepairIndex>,
    row_repairs: HashMap<usize, Vec<Repair>>,
}

impl DeltaSession {
    /// Run one full clean of `table` (byte-identical to
    /// [`Katara::clean`] under the same config) and return the warmed
    /// session alongside its report.
    pub fn bootstrap<O: Oracle>(
        table: &Table,
        kb: &mut Kb,
        crowd: &mut Crowd<O>,
        config: KataraConfig,
    ) -> Result<(Self, CleaningReport), KataraError> {
        let mut snapshot = Some(Cow::Owned(
            TableResolution::build(table, kb, config.candidates.max_rows)
                .with_recorder(config.recorder.clone()),
        ));
        let report = Katara::new(config.clone()).clean_patching(table, kb, crowd, &mut snapshot)?;
        let resolution = snapshot.expect("an injected snapshot is handed back");

        let ncols = table.num_columns();
        let pairs: Vec<(usize, usize)> = (0..ncols)
            .flat_map(|i| (0..ncols).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        let npairs = pairs.len();
        let mut session = DeltaSession {
            config,
            table: table.clone(),
            resolution,
            ncols,
            pairs,
            col_counts: vec![HashMap::new(); ncols],
            col_non_null: vec![0; ncols],
            pair_counts: vec![HashMap::new(); npairs],
            pair_non_null: vec![0; npairs],
            col_lists: vec![Vec::new(); ncols],
            pair_lists: vec![Vec::new(); npairs],
            dirty_cols: vec![true; ncols],
            dirty_pairs: vec![true; npairs],
            needs_full_refold: false,
            full_pattern: None,
            full_rows: vec![false; table.num_rows()],
            repair_pattern: None,
            repair_kb_version: 0,
            repair_index: None,
            row_repairs: HashMap::new(),
        };
        // Warm the discovery caches over the snapshot the run patched
        // (bootstrap folding is part of the full run's work, so it is not
        // counted as delta re-scoring).
        session.rebuild_window_counts();
        session.refold(kb);
        session.refresh_full_rows(
            kb,
            &report.pattern,
            &report.annotation,
            report.degradation.deadline_expired,
        );
        if !report.degradation.deadline_expired {
            // The run's own index was dropped with its locals; rebuild it
            // quietly (identical by determinism) so the first delta run
            // starts warm.
            let quiet = RepairConfig {
                recorder: Arc::new(NoopRecorder),
                deadline: Deadline::none(),
                ..session.config.repair.clone()
            };
            session.repair_index = Some(RepairIndex::build(kb, &report.pattern, &quiet));
            session.repair_pattern = Some(report.pattern.clone());
            session.repair_kb_version = kb.version();
            session.row_repairs = report.repairs.iter().cloned().collect();
        }
        Ok((session, report))
    }

    /// The session's current table (edits applied in order).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The live resolution snapshot.
    pub fn resolution(&self) -> &TableResolution {
        &self.resolution
    }

    /// The session configuration.
    pub fn config(&self) -> &KataraConfig {
        &self.config
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
            self.needs_full_refold = true;
            self.full_pattern = None;
            self.full_rows.iter_mut().for_each(|f| *f = false);
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
        let rec = self.config.recorder.clone();
        let dl = self.config.deadline.clone();
        crowd.set_deadline(dl.clone());
        let discovery_cfg = DiscoveryConfig {
            recorder: rec.clone(),
            ..self.config.discovery.clone()
        };
        let validation_cfg = ValidationConfig {
            deadline: dl.clone(),
            ..self.config.validation.clone()
        };
        let annotation_cfg = AnnotationConfig {
            deadline: dl.clone(),
            ..self.config.annotation.clone()
        };
        let repair_cfg = RepairConfig {
            recorder: rec.clone(),
            deadline: dl.clone(),
            ..self.config.repair.clone()
        };
        if dl.expired() {
            return Err(KataraError::DeadlineExceeded { phase: "resolve" });
        }
        let root = Span::enter(rec.as_ref(), "clean_delta");
        let stats_before = crowd.stats().clone();
        let mut asked_mark: CrowdStats = stats_before.clone();

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
        rec.set_gauge(Gauge::TableRows, self.table.num_rows() as u64);
        rec.set_gauge(Gauge::TableColumns, self.table.num_columns() as u64);
        if dl.expired() {
            return Err(KataraError::DeadlineExceeded { phase: "discover" });
        }

        // (1) Discovery: re-fold only the dirty candidate lists (no KB
        // probes — the folds read memoized snapshot tiers), then re-run
        // the rank-join over the assembled CandidateSet.
        let (patterns, discovery_stats) = {
            let _span = Span::enter(rec.as_ref(), "discover");
            let rescored = self.refold(kb);
            rec.incr_by(Counter::DeltaPatternsRescored, rescored as u64);
            let cands = self.candidate_set();
            discover_topk_with_stats(
                &self.table,
                kb,
                &cands,
                self.config.patterns_k,
                &discovery_cfg,
            )
        };
        if patterns.is_empty() {
            return Err(KataraError::NoPatternFound {
                table: self.table.name().to_string(),
                kb: kb.name().to_string(),
            });
        }

        let mut deadline_phase: Option<&'static str> = None;
        let mark_phase = |phase: &'static str, deadline_phase: &mut Option<&'static str>| {
            if dl.triggered() && deadline_phase.is_none() {
                *deadline_phase = Some(phase);
            }
        };

        // (2) Validation always re-runs: crowd state is not cacheable.
        let outcome = {
            let _span = Span::enter(rec.as_ref(), "validate");
            if dl.expired() {
                let mut patterns = patterns;
                patterns.sort_by(|a, b| b.score().total_cmp(&a.score()));
                let pattern = patterns
                    .into_iter()
                    .next()
                    .expect("non-empty checked above");
                ValidationOutcome {
                    pattern,
                    variables_validated: 0,
                    questions_asked: 0,
                    fully_validated: false,
                    no_quorum_variables: 0,
                }
            } else {
                validate_patterns(
                    &self.table,
                    kb,
                    patterns,
                    crowd,
                    &validation_cfg,
                    self.config.strategy,
                )
            }
        };
        mark_phase("validate", &mut deadline_phase);
        record_phase_questions(
            rec.as_ref(),
            crowd.stats(),
            &mut asked_mark,
            Counter::ValidationQuestions,
        );
        rec.incr_by(
            Counter::ValidationNoQuorumVariables,
            outcome.no_quorum_variables as u64,
        );
        let pattern = outcome.pattern;

        // (3) Annotation, skipping rows whose Full match under this same
        // pattern is still guaranteed. It patches the snapshot with its
        // own enrichment and leaves it current.
        let annotation = {
            let _span = Span::enter(rec.as_ref(), "annotate");
            let full =
                (self.full_pattern.as_ref() == Some(&pattern)).then_some(self.full_rows.as_slice());
            annotate_resolved_cached(
                &self.table,
                &pattern,
                kb,
                crowd,
                &annotation_cfg,
                Some(&mut self.resolution),
                full,
            )
        };
        mark_phase("annotate", &mut deadline_phase);
        record_phase_questions(
            rec.as_ref(),
            crowd.stats(),
            &mut asked_mark,
            Counter::AnnotationCrowdQuestions,
        );
        rec.incr_by(
            Counter::AnnotationEnrichedFacts,
            annotation.enriched_facts as u64,
        );
        rec.incr_by(
            Counter::AnnotationEnrichedEntities,
            annotation.enriched_entities as u64,
        );

        // (4) Repair, reusing the index and every cached row whose
        // (cells, pattern, KB version) triple is unchanged.
        let effective = annotation.pattern.clone();
        let erroneous = annotation.erroneous_rows();
        let repairs = {
            let _span = Span::enter(rec.as_ref(), "repair");
            if crowd.is_budget_exhausted() {
                rec.incr(Counter::RepairBudgetStopped);
            }
            if dl.expired() {
                deadline_phase.get_or_insert("repair");
                Vec::new()
            } else {
                let cache_ok = self.repair_pattern.as_ref() == Some(&effective)
                    && self.repair_kb_version == kb.version();
                let index = match (cache_ok, self.repair_index.take()) {
                    (true, Some(index)) => index,
                    _ => RepairIndex::build(kb, &effective, &repair_cfg),
                };
                let live: Vec<usize> = erroneous
                    .iter()
                    .copied()
                    .filter(|r| !(cache_ok && self.row_repairs.contains_key(r)))
                    .collect();
                rec.incr_by(Counter::DeltaTuplesRepaired, live.len() as u64);
                let fresh: HashMap<usize, Vec<Repair>> = generate_repairs_resolved(
                    &index,
                    kb,
                    &effective,
                    &self.table,
                    &live,
                    self.config.repairs_k,
                    &repair_cfg,
                    self.config.threads,
                    Some(&self.resolution),
                )
                .into_iter()
                .collect();
                let merged: Vec<(usize, Vec<Repair>)> = erroneous
                    .iter()
                    .filter_map(|&r| {
                        if let Some(v) = fresh.get(&r) {
                            Some((r, v.clone()))
                        } else if cache_ok {
                            self.row_repairs.get(&r).map(|v| (r, v.clone()))
                        } else {
                            None
                        }
                    })
                    .collect();
                self.repair_index = Some(index);
                self.repair_pattern = Some(effective.clone());
                self.repair_kb_version = kb.version();
                self.row_repairs = merged.iter().cloned().collect();
                merged
            }
        };
        mark_phase("repair", &mut deadline_phase);

        let run_stats = crowd.stats().since(&stats_before);
        rec.incr_by(Counter::CrowdQuestionsAsked, run_stats.questions() as u64);
        rec.incr_by(
            Counter::CrowdQuestionsRetried,
            run_stats.questions_retried as u64,
        );
        rec.incr_by(
            Counter::CrowdNoQuorumQuestions,
            run_stats.no_quorum_questions as u64,
        );
        rec.incr_by(Counter::CrowdBudgetDenied, run_stats.budget_denied as u64);
        crate::pipeline::record_quality_counters(rec.as_ref(), &run_stats);
        if let Some(remaining) = crowd.budget_remaining() {
            rec.set_gauge(Gauge::CrowdBudgetRemaining, remaining as u64);
        }
        drop(root);
        let degradation = DegradationReport {
            questions_retried: run_stats.questions_retried,
            escalations: run_stats.escalations,
            dropouts: run_stats.dropouts,
            abstentions: run_stats.abstentions,
            no_quorum_questions: run_stats.no_quorum_questions,
            budget_denied: run_stats.budget_denied,
            budget_exhausted: crowd.is_budget_exhausted(),
            pattern_partially_validated: !outcome.fully_validated,
            no_quorum_variables: outcome.no_quorum_variables,
            unresolved_tuples: annotation.unresolved_rows().len(),
            simulated_latency_ms: run_stats.simulated_latency_ms,
            ingest_quarantined: 0,
            ingest_repaired_edges: 0,
            questions_asked: run_stats.questions(),
            budget_remaining: crowd.budget_remaining(),
            deadline_expired: deadline_phase.is_some(),
            deadline_phase,
            deadline_denied: run_stats.deadline_denied,
            enrichment_dropped: 0,
            posterior_confident: run_stats.posterior_confident,
            questions_saved: run_stats.questions_saved,
        };

        // Post-run bookkeeping: enrichment moved tf-idf inputs, and the
        // carry-over annotation cache is refreshed.
        if !annotation.delta.is_empty() {
            self.needs_full_refold = true;
        }
        self.refresh_full_rows(kb, &pattern, &annotation, degradation.deadline_expired);

        Ok(CleaningReport {
            pattern: effective,
            variables_validated: outcome.variables_validated,
            discovery_stats,
            annotation,
            repairs,
            degradation,
        })
    }

    // ---- Window maintenance ------------------------------------------------

    /// The discovery scan window: the same `min(max_rows, num_rows)`
    /// prefix the full path scans.
    fn window(&self) -> usize {
        self.config.candidates.max_rows.min(self.table.num_rows())
    }

    fn row_ids(&self, row: usize) -> Vec<Option<u32>> {
        (0..self.ncols)
            .map(|c| self.resolution.value_id(c, row))
            .collect()
    }

    fn mark_all_dirty(&mut self) {
        self.dirty_cols.iter_mut().for_each(|d| *d = true);
        self.dirty_pairs.iter_mut().for_each(|d| *d = true);
    }

    /// Add one window row's contributions to every support count.
    fn add_window_row(&mut self, ids: &[Option<u32>]) {
        for (c, id) in ids.iter().enumerate() {
            if let Some(id) = id {
                *self.col_counts[c].entry(*id).or_insert(0) += 1;
                self.col_non_null[c] += 1;
            }
        }
        for (pi, &(i, j)) in self.pairs.iter().enumerate() {
            if let (Some(a), Some(b)) = (ids[i], ids[j]) {
                *self.pair_counts[pi].entry((a, b)).or_insert(0) += 1;
                self.pair_non_null[pi] += 1;
            }
        }
    }

    /// Remove one window row's contributions from every support count.
    fn remove_window_row(&mut self, ids: &[Option<u32>]) {
        for (c, id) in ids.iter().enumerate() {
            if let Some(id) = id {
                dec_count(&mut self.col_counts[c], *id);
                self.col_non_null[c] -= 1;
            }
        }
        for (pi, &(i, j)) in self.pairs.iter().enumerate() {
            if let (Some(a), Some(b)) = (ids[i], ids[j]) {
                dec_count(&mut self.pair_counts[pi], (a, b));
                self.pair_non_null[pi] -= 1;
            }
        }
    }

    /// Cell-level count patch for an in-place upsert of a window row,
    /// dirtying exactly the columns and pairs whose support moved.
    fn patch_window_row(&mut self, old: &[Option<u32>], new: &[Option<u32>]) {
        for c in 0..self.ncols {
            if old[c] == new[c] {
                continue;
            }
            if let Some(o) = old[c] {
                dec_count(&mut self.col_counts[c], o);
                self.col_non_null[c] -= 1;
            }
            if let Some(n) = new[c] {
                *self.col_counts[c].entry(n).or_insert(0) += 1;
                self.col_non_null[c] += 1;
            }
            self.dirty_cols[c] = true;
        }
        for (pi, &(i, j)) in self.pairs.iter().enumerate() {
            if old[i] == new[i] && old[j] == new[j] {
                continue;
            }
            if let (Some(a), Some(b)) = (old[i], old[j]) {
                dec_count(&mut self.pair_counts[pi], (a, b));
                self.pair_non_null[pi] -= 1;
            }
            if let (Some(a), Some(b)) = (new[i], new[j]) {
                *self.pair_counts[pi].entry((a, b)).or_insert(0) += 1;
                self.pair_non_null[pi] += 1;
            }
            self.dirty_pairs[pi] = true;
        }
    }

    /// Rebuild every support count by scanning the window (bootstrap and
    /// the stale-snapshot fallback).
    fn rebuild_window_counts(&mut self) {
        let w = self.window();
        for c in 0..self.ncols {
            self.col_counts[c].clear();
            self.col_non_null[c] = 0;
        }
        for pi in 0..self.pairs.len() {
            self.pair_counts[pi].clear();
            self.pair_non_null[pi] = 0;
        }
        for r in 0..w {
            let ids = self.row_ids(r);
            self.add_window_row(&ids);
        }
        self.mark_all_dirty();
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
        match edit {
            TableEdit::Upsert { row, cells } => {
                if cells.len() != self.ncols {
                    return Err(KataraError::BadDelta {
                        edit: idx,
                        detail: format!(
                            "upsert has {} cells, table has {} columns",
                            cells.len(),
                            self.ncols
                        ),
                    });
                }
                let row = *row;
                let nrows = self.table.num_rows();
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
                    self.full_rows.push(false);
                    stats.touched += 1;
                    if row < self.config.candidates.max_rows {
                        let ids = self.row_ids(row);
                        self.add_window_row(&ids);
                        self.mark_all_dirty();
                    }
                } else {
                    let w = self.window();
                    let old_ids = self.row_ids(row);
                    let mut new_ids = vec![None; self.ncols];
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
                        self.full_rows[row] = false;
                        self.row_repairs.remove(&row);
                    } else {
                        stats.noop += 1;
                    }
                    if row < w {
                        self.patch_window_row(&old_ids, &new_ids);
                    }
                }
            }
            TableEdit::Delete { row } => {
                let row = *row;
                let nrows = self.table.num_rows();
                if row >= nrows {
                    return Err(KataraError::BadDelta {
                        edit: idx,
                        detail: format!("delete row {row} out of range (table has {nrows} rows)"),
                    });
                }
                let w = self.window();
                if row < w {
                    let old_ids = self.row_ids(row);
                    // Deleting inside a capped window pulls the first
                    // out-of-window row in (indices shift up by one).
                    let boundary = (nrows > w).then(|| self.row_ids(w));
                    self.table.remove_row(row);
                    self.resolution.to_mut().remove_row(row);
                    self.remove_window_row(&old_ids);
                    if let Some(b) = boundary {
                        self.add_window_row(&b);
                    }
                    self.mark_all_dirty();
                } else {
                    self.table.remove_row(row);
                    self.resolution.to_mut().remove_row(row);
                }
                self.full_rows.remove(row);
                self.row_repairs = std::mem::take(&mut self.row_repairs)
                    .into_iter()
                    .filter_map(|(r, v)| match r.cmp(&row) {
                        std::cmp::Ordering::Less => Some((r, v)),
                        std::cmp::Ordering::Equal => None,
                        std::cmp::Ordering::Greater => Some((r - 1, v)),
                    })
                    .collect();
                stats.touched += 1;
            }
        }
        Ok(())
    }

    // ---- Discovery cache ---------------------------------------------------

    /// Re-fold the dirty candidate lists from the maintained counts.
    /// Returns how many lists were re-scored. Pure arithmetic over
    /// memoized snapshot tiers — no `discovery.*` probe counters.
    fn refold(&mut self, kb: &Kb) -> usize {
        if self.needs_full_refold {
            self.mark_all_dirty();
            self.needs_full_refold = false;
        }
        let mut rescored = 0usize;
        for c in 0..self.ncols {
            if !self.dirty_cols[c] {
                continue;
            }
            let acc = fold_types_from_counts(kb, &self.resolution, &self.col_counts[c]);
            self.col_lists[c] = rank_types(kb, acc, self.col_non_null[c], &self.config.candidates);
            self.dirty_cols[c] = false;
            rescored += 1;
        }
        for pi in 0..self.pairs.len() {
            if !self.dirty_pairs[pi] {
                continue;
            }
            // Memoize any pair combination edits introduced before the
            // fold reads it.
            let keys: Vec<(u32, u32)> = self.pair_counts[pi].keys().copied().collect();
            for (a, b) in keys {
                self.resolution.to_mut().ensure_pair(kb, a, b);
            }
            let acc = fold_rels_from_counts(kb, &self.resolution, &self.pair_counts[pi]);
            self.pair_lists[pi] =
                rank_rels(kb, acc, self.pair_non_null[pi], &self.config.candidates);
            self.dirty_pairs[pi] = false;
            rescored += 1;
        }
        rescored
    }

    /// Assemble the full-path-shaped [`CandidateSet`] from the cached
    /// lists (pairs with no surviving candidate are omitted, as in the
    /// full scan).
    fn candidate_set(&self) -> CandidateSet {
        let mut pair_rels = HashMap::new();
        for (pi, &(i, j)) in self.pairs.iter().enumerate() {
            if !self.pair_lists[pi].is_empty() {
                pair_rels.insert((i, j), self.pair_lists[pi].clone());
            }
        }
        CandidateSet {
            col_types: self.col_lists.clone(),
            pair_rels,
            rows_scanned: self.window(),
        }
    }

    // ---- Annotation cache --------------------------------------------------

    /// Recompute the full-match carry-over after a run: a row is cached
    /// iff it was KB- or crowd-validated *and* matches the validated
    /// pattern `Full` against the post-run KB. Feedback-stripped and
    /// deadline-degraded runs cache nothing (their effective pattern or
    /// row statuses diverge from the pass the cache feeds).
    fn refresh_full_rows(
        &mut self,
        kb: &Kb,
        validated: &TablePattern,
        annotation: &AnnotationResult,
        deadline_expired: bool,
    ) {
        let n = self.table.num_rows();
        let prev = std::mem::take(&mut self.full_rows);
        let prev_valid = self.full_pattern.as_ref() == Some(validated);
        if !annotation.feedback_stripped.is_empty() || deadline_expired {
            self.full_pattern = None;
            self.full_rows = vec![false; n];
            return;
        }
        let mut next = vec![false; n];
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
            next[t.row] = (prev_valid && prev.get(t.row).copied().unwrap_or(false))
                || validated
                    .match_tuple_resolved(
                        kb,
                        self.table.row(t.row),
                        Some((&self.resolution, t.row)),
                    )
                    .outcome
                    == TupleMatch::Full;
        }
        self.full_pattern = Some(validated.clone());
        self.full_rows = next;
    }

    /// Stale-snapshot fallback: rebuild the resolution and drop every
    /// cache. Sound whatever the caller missed, at full-rebuild cost.
    fn resync(&mut self, kb: &Kb) {
        self.resolution = Cow::Owned(
            TableResolution::build(&self.table, kb, self.config.candidates.max_rows)
                .with_recorder(self.config.recorder.clone()),
        );
        self.rebuild_window_counts();
        self.needs_full_refold = true;
        self.full_pattern = None;
        self.full_rows = vec![false; self.table.num_rows()];
        self.repair_pattern = None;
        self.repair_index = None;
        self.row_repairs.clear();
    }
}

impl Katara {
    /// Bootstrap an incremental [`DeltaSession`] under this pipeline's
    /// configuration: one full clean (byte-identical to
    /// [`Katara::clean`]) whose caches the returned session carries
    /// forward into [`DeltaSession::clean_delta`] runs.
    pub fn delta_session<O: Oracle>(
        &self,
        table: &Table,
        kb: &mut Kb,
        crowd: &mut Crowd<O>,
    ) -> Result<(DeltaSession, CleaningReport), KataraError> {
        DeltaSession::bootstrap(table, kb, crowd, self.config().clone())
    }
}

/// Decrement a support count, removing the key at zero so count maps
/// stay equal to freshly scanned ones.
fn dec_count<K: std::hash::Hash + Eq>(m: &mut HashMap<K, usize>, k: K) {
    match m.entry(k) {
        std::collections::hash_map::Entry::Occupied(mut e) => {
            if *e.get() <= 1 {
                e.remove();
            } else {
                *e.get_mut() -= 1;
            }
        }
        std::collections::hash_map::Entry::Vacant(_) => {
            debug_assert!(false, "window count underflow");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::discover_candidates_resolved;
    use crate::candidates::CandidateConfig;
    use katara_crowd::{Answer, CrowdConfig, Question};
    use katara_obs::RunRecorder;

    /// The pipeline test world: countries, capitals, players; the KB
    /// misses one capital fact and the table has one true error.
    fn setting() -> (Kb, Table) {
        let mut b = katara_kb::KbBuilder::new().with_name("mini-yago");
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
            ("Benzema", "France", "Paris"),
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
        let (mut session, boot) =
            DeltaSession::bootstrap(&t0, &mut kb_inc, &mut c, KataraConfig::default()).unwrap();

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
        let (mut session, _) =
            DeltaSession::bootstrap(&t, &mut kb, &mut c, KataraConfig::default()).unwrap();
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
        assert_eq!(session.candidate_set(), fresh);
    }

    #[test]
    fn delta_run_skips_discovery_probes_and_accounts_edits() {
        let (mut kb, t) = setting();
        let rec = Arc::new(RunRecorder::new());
        let config = KataraConfig {
            recorder: rec.clone(),
            annotation: AnnotationConfig {
                enrich_kb: false,
                ..AnnotationConfig::default()
            },
            ..KataraConfig::default()
        };
        let mut c = crowd();
        let (mut session, _) = DeltaSession::bootstrap(&t, &mut kb, &mut c, config).unwrap();
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

    #[test]
    fn bad_edits_error_and_leave_a_consistent_session() {
        let (mut kb, t) = setting();
        let mut c = crowd();
        let (mut session, _) =
            DeltaSession::bootstrap(&t, &mut kb, &mut c, KataraConfig::default()).unwrap();
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
        let (mut session, _) =
            DeltaSession::bootstrap(&t0, &mut kb_inc, &mut c, KataraConfig::default()).unwrap();

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
        let (mut session, _) =
            DeltaSession::bootstrap(&t0, &mut kb_inc, &mut c, KataraConfig::default()).unwrap();
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
