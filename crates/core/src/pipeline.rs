//! The end-to-end KATARA pipeline (§2, Fig. 9): pattern discovery →
//! pattern validation → data annotation → possible repairs, plus multi-KB
//! selection (a §9 future-work item implemented here).
//!
//! There is one cleaning run. [`Katara::clean`] adopts or builds the
//! query snapshot and runs it once; the incremental
//! [`DeltaSession`](crate::delta::DeltaSession) folds its edits into a
//! long-lived snapshot and runs it again. What differs between the two
//! travels in the run's caches: how the candidate lists are made (a
//! fresh window scan and full fold, or a re-fold of a maintained
//! window's dirty lists), the rows whose Full match carries over into
//! annotation, and the repair index with its per-row repairs, reused
//! while the effective pattern and the KB version hold. A one-shot clean
//! starts with all three empty.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use katara_crowd::{Crowd, CrowdStats, Oracle};
use katara_exec::{Deadline, Threads};
use katara_kb::{EnrichmentDelta, Kb};
use katara_obs::{Counter, Gauge, NoopRecorder, Recorder, Span};
use katara_table::Table;

use crate::annotation::{annotate_resolved_cached, AnnotationConfig, AnnotationResult};
use crate::candidates::{discover_candidates, CandidateConfig, WindowCounts};
use crate::delta::FullRows;
use crate::error::KataraError;
use crate::pattern::TablePattern;
use crate::rank_join::{discover_topk_with_stats, DiscoveryConfig, DiscoveryStats};
use crate::repair::{generate_repairs_resolved, Repair, RepairConfig, RepairIndex};
use crate::resolve::TableResolution;
use crate::validation::{
    validate_patterns, SchedulingStrategy, ValidationConfig, ValidationOutcome,
};

/// End-to-end configuration.
#[derive(Debug, Clone)]
pub struct KataraConfig {
    /// Candidate discovery knobs (§4.1).
    pub candidates: CandidateConfig,
    /// Rank-join knobs (§4.3).
    pub discovery: DiscoveryConfig,
    /// How many patterns to hand to validation (the paper's top-k).
    pub patterns_k: usize,
    /// Validation knobs (§5).
    pub validation: ValidationConfig,
    /// Scheduling strategy (MUVF by default).
    pub strategy: SchedulingStrategy,
    /// Annotation knobs (§6.1).
    pub annotation: AnnotationConfig,
    /// Repair knobs (§6.2).
    pub repair: RepairConfig,
    /// How many possible repairs per erroneous tuple (paper fixes 3).
    pub repairs_k: usize,
    /// Worker threads for repair generation over erroneous tuples.
    /// (Candidate discovery reads its own [`CandidateConfig::threads`];
    /// the CLI sets both from one `--threads` flag.) Results are
    /// byte-identical for every thread count.
    pub threads: Threads,
    /// Observability sink for the whole run: phase spans, KB-probe and
    /// snapshot-tier counters, crowd-spend accounting. The pipeline
    /// injects this recorder into every stage config it runs (the
    /// per-stage `recorder` fields are overridden), so setting it here is
    /// enough to instrument a full `clean`. Defaults to [`NoopRecorder`].
    pub recorder: Arc<dyn Recorder>,
    /// Per-run wall-clock deadline, checked cooperatively at phase
    /// boundaries, inside the validation scheduler and annotation row
    /// loops, per seed entity of the repair index build, by every repair
    /// worker, and before every crowd ask (the pipeline gives it to the
    /// crowd, which validation and annotation consult, and injects it
    /// into the repair config, like the recorder). Expiry before
    /// discovery yields a pattern errors with
    /// [`KataraError::DeadlineExceeded`]; later expiry completes with a
    /// partial report whose finished-phase prefix is identical to the
    /// undeadlined run. Inert by default.
    pub deadline: Deadline,
}

impl Default for KataraConfig {
    fn default() -> Self {
        KataraConfig {
            candidates: CandidateConfig::default(),
            discovery: DiscoveryConfig::default(),
            patterns_k: 5,
            validation: ValidationConfig::default(),
            strategy: SchedulingStrategy::Muvf,
            annotation: AnnotationConfig::default(),
            repair: RepairConfig::default(),
            repairs_k: 3,
            threads: Threads::auto(),
            recorder: Arc::new(NoopRecorder),
            deadline: Deadline::none(),
        }
    }
}

/// Everything a cleaning run produces.
#[derive(Debug)]
pub struct CleaningReport {
    /// The crowd-validated table pattern.
    pub pattern: TablePattern,
    /// Variables the validation phase had to ask about.
    pub variables_validated: usize,
    /// Search effort of pattern discovery.
    pub discovery_stats: DiscoveryStats,
    /// Per-tuple annotations and enrichment counts.
    pub annotation: AnnotationResult,
    /// For each erroneous row: its top-k possible repairs. Unresolved
    /// rows never appear here.
    pub repairs: Vec<(usize, Vec<Repair>)>,
    /// How much the unreliable-crowd machinery had to intervene.
    pub degradation: DegradationReport,
}

impl CleaningReport {
    /// The KB mutations this run performed through enrichment (§6.1),
    /// captured as a replayable [`EnrichmentDelta`]. Durable callers
    /// journal this before acknowledging the run; applying it to a copy
    /// of the pre-run KB reproduces the post-run store byte for byte.
    pub fn enrichment(&self) -> &EnrichmentDelta {
        &self.annotation.delta
    }
}

/// Degradation accounting for one cleaning run: what the retry, fault,
/// and budget machinery did. All counters cover only this run, even when
/// the crowd was used before.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Question attempts re-issued after a no-quorum attempt.
    pub questions_retried: usize,
    /// Extra replicas requested by retry escalation.
    pub escalations: usize,
    /// Replica slots lost to worker dropout.
    pub dropouts: usize,
    /// Replica slots lost to worker abstention.
    pub abstentions: usize,
    /// Questions that never reached a quorum even after retries.
    pub no_quorum_questions: usize,
    /// Ask attempts denied outright by the budget.
    pub budget_denied: usize,
    /// True once the crowd budget ran dry during the run.
    pub budget_exhausted: bool,
    /// True when validation stopped early and the pattern is only the
    /// best seen so far.
    pub pattern_partially_validated: bool,
    /// Validation variables skipped for lack of quorum (score-order
    /// fallback applied).
    pub no_quorum_variables: usize,
    /// Tuples annotated [`Unresolved`](crate::annotation::TupleStatus::Unresolved).
    pub unresolved_tuples: usize,
    /// Total simulated worker latency for the run, in milliseconds.
    pub simulated_latency_ms: u64,
    /// Input lines/records quarantined during lenient ingestion of the
    /// run's KB and table (folded in via
    /// [`IngestSummary::apply_to`](crate::ingest::IngestSummary::apply_to)).
    pub ingest_quarantined: usize,
    /// Hierarchy edges the KB ingest audit dropped to break cycles.
    pub ingest_repaired_edges: usize,
    /// Crowd questions asked during this run — the paper's §5 cost
    /// metric. Informational: spending budget is not degradation, so
    /// [`Self::is_degraded`] ignores it.
    pub questions_asked: usize,
    /// Questions the budget still allows after the run (`None` when the
    /// question budget is unlimited). Informational, like
    /// [`Self::questions_asked`].
    pub budget_remaining: Option<usize>,
    /// True when the run's [`Deadline`] expired at a cancellation point
    /// and the report is a partial (but untorn) result.
    pub deadline_expired: bool,
    /// The first pipeline phase affected by deadline expiry
    /// (`"validate"`, `"annotate"` or `"repair"`); every phase before it
    /// completed normally and is identical to an undeadlined run.
    pub deadline_phase: Option<&'static str>,
    /// Crowd asks denied because the deadline had expired.
    pub deadline_denied: usize,
    /// Enrichment ops the caller could not persist durably (journal
    /// append failed after retries). The cleaning *report* is still
    /// complete — only the KB side-effects were dropped — but a restart
    /// would forget them, so this counts as degradation. Always zero for
    /// non-durable (journal-less) runs.
    pub enrichment_dropped: usize,
    /// Asks the Dawid–Skene aggregator settled by posterior confidence
    /// (always zero under plurality). Informational, like
    /// [`Self::questions_asked`]: trusting good workers is not
    /// degradation.
    pub posterior_confident: usize,
    /// Replica slots adaptive replication never had to issue (Dawid–
    /// Skene only). Informational — saved money, not lost answers.
    pub questions_saved: usize,
}

impl DegradationReport {
    /// True when anything at all deviated from the reliable-crowd,
    /// clean-input path.
    pub fn is_degraded(&self) -> bool {
        self.questions_retried > 0
            || self.dropouts > 0
            || self.abstentions > 0
            || self.no_quorum_questions > 0
            || self.budget_denied > 0
            || self.budget_exhausted
            || self.pattern_partially_validated
            || self.no_quorum_variables > 0
            || self.unresolved_tuples > 0
            || self.ingest_quarantined > 0
            || self.ingest_repaired_edges > 0
            || self.deadline_expired
            || self.enrichment_dropped > 0
    }
}

/// The KATARA system: one KB, one crowd, one configuration.
#[derive(Debug, Clone)]
pub struct Katara {
    config: KataraConfig,
}

impl Default for Katara {
    fn default() -> Self {
        Katara::new(KataraConfig::default())
    }
}

impl Katara {
    /// Create a pipeline with the given configuration.
    pub fn new(config: KataraConfig) -> Self {
        Katara { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &KataraConfig {
        &self.config
    }

    /// Run the full pipeline on `table` against `kb` with `crowd`.
    ///
    /// The KB is mutated by enrichment (§6.1). Errors with
    /// [`KataraError::NoPatternFound`] when discovery produces nothing —
    /// the paper's "KATARA will terminate" case.
    pub fn clean<O: Oracle>(
        &self,
        table: &Table,
        kb: &mut Kb,
        crowd: &mut Crowd<O>,
    ) -> Result<CleaningReport, KataraError> {
        self.clean_with_resolution(table, kb, crowd, None)
    }

    /// Like [`clean`](Self::clean), with an optional pre-built
    /// [`TableResolution`] for `(table, kb)`, which must be current for
    /// `kb` ([`TableResolution::is_current`]). Injecting one skips the
    /// snapshot build (the cold half of the resolve bench measures
    /// exactly that build); pass `None` for normal operation, where the
    /// snapshot is built here once per run. The injected snapshot is
    /// never mutated: annotation patches a private copy when enrichment
    /// writes to `kb`.
    ///
    /// A snapshot built for another table is refused with
    /// [`KataraError::ForeignSnapshot`] before the run starts
    /// ([`TableResolution::check_table`], one normalization per cell).
    pub fn clean_with_resolution<O: Oracle>(
        &self,
        table: &Table,
        kb: &mut Kb,
        crowd: &mut Crowd<O>,
        shared: Option<&TableResolution>,
    ) -> Result<CleaningReport, KataraError> {
        let mut caches = RunCaches::default();
        let (report, _) = self.clean_caching(table, kb, crowd, shared, &mut caches)?;
        Ok(report)
    }

    /// [`clean_with_resolution`](Self::clean_with_resolution) with the
    /// caller's [`RunCaches`], returning the snapshot too: on success it
    /// is current for the enriched `kb`.
    pub(crate) fn clean_caching<'s, O: Oracle>(
        &self,
        table: &Table,
        kb: &mut Kb,
        crowd: &mut Crowd<O>,
        shared: Option<&'s TableResolution>,
        caches: &mut RunCaches,
    ) -> Result<(CleaningReport, Cow<'s, TableResolution>), KataraError> {
        if let Some(shared) = shared {
            shared.check_table(table)?;
        }
        debug_assert!(
            shared.is_none_or(|r| r.is_current(kb)),
            "clean needs a snapshot current for its KB"
        );
        self.open_run(crowd)?;
        let rec = self.config.recorder.as_ref();
        let _root = Span::enter(rec, "clean");
        // (0) The shared query snapshot: adopt the injected one, or
        // build it once for the whole run.
        let mut snapshot = {
            let _span = Span::enter(rec, "resolve");
            match shared {
                Some(shared) => Cow::Borrowed(shared),
                None => Cow::Owned(
                    TableResolution::build(table, kb, self.config.candidates.max_rows)
                        .with_recorder(self.config.recorder.clone()),
                ),
            }
        };
        let report = self.run(table, kb, crowd, &mut snapshot, caches)?;
        Ok((report, snapshot))
    }

    /// Arm `crowd` with the run's deadline and make the run's first
    /// deadline check: expiry before any pattern exists leaves nothing to
    /// degrade to. The caller then opens its root span.
    pub(crate) fn open_run<O: Oracle>(&self, crowd: &mut Crowd<O>) -> Result<(), KataraError> {
        crowd.set_deadline(self.config.deadline.clone());
        if self.config.deadline.expired() {
            return Err(KataraError::DeadlineExceeded { phase: "resolve" });
        }
        Ok(())
    }

    /// The cleaning run: discover → validate → annotate → repair over
    /// `snapshot` (current for `kb`), then the crowd accounting and the
    /// report. [`Self::clean_caching`] calls it once the snapshot is
    /// adopted or built, and
    /// [`DeltaSession::clean_delta`](crate::delta::DeltaSession::clean_delta)
    /// once its edits are folded in; `caches` carries what differs
    /// between them.
    pub(crate) fn run<O: Oracle>(
        &self,
        table: &Table,
        kb: &mut Kb,
        crowd: &mut Crowd<O>,
        snapshot: &mut Cow<'_, TableResolution>,
        caches: &mut RunCaches,
    ) -> Result<CleaningReport, KataraError> {
        // One recorder for the whole run: KataraConfig's wins — it is
        // injected into every stage config the pipeline actually runs.
        // The deadline reaches validation and annotation through the
        // crowd (armed in `open_run`) and repair through its config, so
        // all cancellation points consult one cutoff.
        let rec = self.config.recorder.clone();
        let dl = self.config.deadline.clone();
        let candidates_cfg = CandidateConfig {
            recorder: rec.clone(),
            ..self.config.candidates.clone()
        };
        let discovery_cfg = DiscoveryConfig {
            recorder: rec.clone(),
            ..self.config.discovery.clone()
        };
        let repair_cfg = RepairConfig {
            recorder: rec.clone(),
            deadline: dl.clone(),
            ..self.config.repair.clone()
        };
        rec.set_gauge(Gauge::TableRows, table.num_rows() as u64);
        rec.set_gauge(Gauge::TableColumns, table.num_columns() as u64);
        // Snapshot crowd stats so the degradation report covers only
        // this run; `asked_mark` advances per phase to split the crowd
        // spend between validation and annotation.
        let stats_before = crowd.stats().clone();
        let mut asked_mark: CrowdStats = stats_before.clone();
        if dl.expired() {
            return Err(KataraError::DeadlineExceeded { phase: "discover" });
        }
        // A run over a maintained window is an incremental replay: its
        // re-folds and fresh repairs are counted under `delta.*`.
        let replay = caches.window.is_some();

        // (1) Pattern discovery, over a fresh window or the re-folded
        // dirty lists of a maintained one.
        let (patterns, discovery_stats) = {
            let _span = Span::enter(rec.as_ref(), "discover");
            let cands = match &mut caches.window {
                Some(window) => {
                    // Memoize any pair combination edits introduced
                    // before the fold reads it.
                    let memo = snapshot.to_mut();
                    for (a, b) in window.dirty_pairs() {
                        memo.ensure_pair(kb, a, b);
                    }
                    let rescored = window.fold(kb, snapshot, &candidates_cfg);
                    rec.incr_by(Counter::DeltaPatternsRescored, rescored as u64);
                    window.candidate_set()
                }
                None => {
                    let window = WindowCounts::discover(table, kb, snapshot, &candidates_cfg);
                    caches.window.insert(window).candidate_set()
                }
            };
            discover_topk_with_stats(table, kb, &cands, self.config.patterns_k, &discovery_cfg)
        };
        if patterns.is_empty() {
            return Err(KataraError::NoPatternFound {
                table: table.name().to_string(),
                kb: kb.name().to_string(),
            });
        }

        // From here on the deadline degrades instead of erroring:
        // discovery produced a pattern, so there is always a coherent
        // partial report to return. `deadline_phase` records the first
        // phase expiry touched; everything before it is byte-identical
        // to an undeadlined run.
        let mut deadline_phase: Option<&'static str> = None;
        let mark_phase = |phase: &'static str, deadline_phase: &mut Option<&'static str>| {
            if dl.triggered() && deadline_phase.is_none() {
                *deadline_phase = Some(phase);
            }
        };

        // (2) Pattern validation via the crowd, re-run every time (crowd
        // state is not cacheable). The scheduler loop and the crowd's ask
        // loop both check the deadline; at the phase boundary an
        // already-expired deadline skips the crowd entirely and falls
        // back to discovery-score order, exactly like a zero-question
        // budget.
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
                    table,
                    kb,
                    patterns,
                    crowd,
                    &self.config.validation,
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

        // (3) Data annotation, skipping the carried-over rows whose Full
        // match under this same pattern is still guaranteed. It mutates
        // the KB through enrichment — the snapshot is patched with every
        // write before its next read — and the enrichment makes every
        // folded list stale (tf-idf inputs may have moved).
        let annotation = {
            let _span = Span::enter(rec.as_ref(), "annotate");
            let full = caches
                .full_rows
                .as_ref()
                .and_then(|f| f.for_pattern(&pattern));
            annotate_resolved_cached(
                table,
                &pattern,
                kb,
                crowd,
                &self.config.annotation,
                Some(&mut *snapshot),
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
        if !annotation.delta.is_empty() {
            if let Some(window) = &mut caches.window {
                window.mark_all_dirty();
            }
        }

        // (4) Top-k possible repairs for the erroneous tuples (§6.2),
        // driven by the *effective* pattern (after annotation-time
        // feedback). The index is built after annotation, so enriched
        // facts contribute instance graphs, and only when an erroneous
        // row is not already served by the cache, so a run with nothing
        // to repair enumerates no instance graph. The index and the
        // cached rows are reused while the effective pattern's shape and
        // the KB version hold.
        let effective = annotation.pattern.clone();
        let repairs = {
            let _span = Span::enter(rec.as_ref(), "repair");
            // Repair itself never spends budget, but it operates on an
            // annotation the exhausted budget truncated — record the
            // early stop so metrics and the report agree.
            if crowd.is_budget_exhausted() {
                rec.incr(Counter::RepairBudgetStopped);
            }
            if dl.expired() {
                deadline_phase.get_or_insert("repair");
                Vec::new()
            } else {
                let cache = &mut caches.repairs;
                let fresh = cache.key.as_ref().is_some_and(|(pattern, version)| {
                    *version == kb.version() && pattern.same_shape(&effective)
                });
                if !fresh {
                    *cache = RepairCache {
                        key: Some((effective.clone(), kb.version())),
                        ..RepairCache::default()
                    };
                }
                let erroneous = annotation.erroneous_rows();
                let live: Vec<usize> = erroneous
                    .iter()
                    .copied()
                    .filter(|r| !cache.rows.contains_key(r))
                    .collect();
                if replay {
                    rec.incr_by(Counter::DeltaTuplesRepaired, live.len() as u64);
                }
                if !live.is_empty() {
                    let index = cache
                        .index
                        .get_or_insert_with(|| RepairIndex::build(kb, &effective, &repair_cfg));
                    // The boundary check above passed, so a deadline
                    // that has tripped since tripped inside the build,
                    // which then holds only some of the graphs (its
                    // workers see the same expiry and repair nothing):
                    // never keep such an index for a later run.
                    let complete = !dl.triggered();
                    // Repair only consumes the snapshot's string tier
                    // (normalized cells).
                    cache.rows.extend(generate_repairs_resolved(
                        index,
                        kb,
                        &effective,
                        table,
                        &live,
                        self.config.repairs_k,
                        &repair_cfg,
                        self.config.threads,
                        Some(&**snapshot),
                    ));
                    if !complete {
                        cache.index = None;
                    }
                }
                let repairs: Vec<(usize, Vec<Repair>)> = erroneous
                    .iter()
                    .filter_map(|&r| cache.rows.get(&r).map(|v| (r, v.clone())))
                    .collect();
                cache.rows = repairs.iter().cloned().collect();
                repairs
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
        rec.incr_by(Counter::CrowdEscalations, run_stats.escalations as u64);
        rec.incr_by(Counter::CrowdEmIterations, run_stats.em_iterations as u64);
        rec.incr_by(
            Counter::CrowdPosteriorConfident,
            run_stats.posterior_confident as u64,
        );
        rec.incr_by(
            Counter::CrowdQuestionsSaved,
            run_stats.questions_saved as u64,
        );
        if let Some(remaining) = crowd.budget_remaining() {
            rec.set_gauge(Gauge::CrowdBudgetRemaining, remaining as u64);
        }
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
            // `clean` receives an already-loaded KB/table; callers that
            // ingested leniently fold their IngestSummary in afterwards.
            ingest_quarantined: 0,
            ingest_repaired_edges: 0,
            questions_asked: run_stats.questions(),
            budget_remaining: crowd.budget_remaining(),
            deadline_expired: deadline_phase.is_some(),
            deadline_phase,
            deadline_denied: run_stats.deadline_denied,
            // Durability is the caller's concern: `clean` applies
            // enrichment in-memory only, so nothing can be dropped here.
            enrichment_dropped: 0,
            posterior_confident: run_stats.posterior_confident,
            questions_saved: run_stats.questions_saved,
        };
        if let Some(full) = &mut caches.full_rows {
            full.refresh(
                kb,
                table,
                snapshot,
                &pattern,
                &annotation,
                degradation.deadline_expired,
            );
        }

        Ok(CleaningReport {
            pattern: effective,
            variables_validated: outcome.variables_validated,
            discovery_stats,
            annotation,
            repairs,
            degradation,
        })
    }
}

/// What a cleaning run reuses from the previous run and leaves for the
/// next. A one-shot clean starts from the empty default and drops it;
/// the incremental session keeps one alive between its runs.
#[derive(Default)]
pub(crate) struct RunCaches {
    /// The discovery window and its folded lists. `None`: the run scans
    /// and folds a fresh window and leaves it here; `Some`: the run
    /// re-folds only its dirty lists.
    pub(crate) window: Option<WindowCounts>,
    /// Rows whose Full match carries over between runs; `None` for a
    /// one-shot clean, which never reuses annotations.
    pub(crate) full_rows: Option<FullRows>,
    /// Repair work, reused while the effective pattern and the KB
    /// version hold.
    pub(crate) repairs: RepairCache,
}

/// The repair index and the per-row top-k repairs of the last run,
/// valid for one (effective pattern shape, KB version) key. Repair
/// results are per-row deterministic functions of (row cells, key), so a
/// row whose cells did not change is served from here. The key compares
/// patterns by [`TablePattern::same_shape`]: repair never reads the
/// score.
#[derive(Default)]
pub(crate) struct RepairCache {
    key: Option<(TablePattern, u64)>,
    /// Built by the first run under this key with a row to repair, and
    /// only ever complete.
    index: Option<RepairIndex>,
    /// Erroneous row → its top-k repairs.
    pub(crate) rows: HashMap<usize, Vec<Repair>>,
}

/// Export the crowd questions asked since `mark` under `counter`, then
/// advance `mark` to the crowd's current totals — splits one crowd's
/// spend between consecutive pipeline phases without touching the phase
/// signatures.
fn record_phase_questions(
    rec: &dyn Recorder,
    now: &CrowdStats,
    mark: &mut CrowdStats,
    counter: Counter,
) {
    rec.incr_by(counter, now.since(mark).questions() as u64);
    *mark = now.clone();
}

/// Multi-KB selection (§2: "the pattern discovery module can be used to
/// select the more relevant KB for a given dataset"; §9 future work).
/// Returns the index of the KB whose best pattern scores highest, with
/// that score — or `None` if no KB yields any pattern.
pub fn select_kb(
    table: &Table,
    kbs: &[&Kb],
    candidates: &CandidateConfig,
    discovery: &DiscoveryConfig,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, kb) in kbs.iter().enumerate() {
        let cands = discover_candidates(table, kb, candidates);
        let (patterns, _) = discover_topk_with_stats(table, kb, &cands, 1, discovery);
        if let Some(p) = patterns.first() {
            if best.is_none_or(|(_, s)| p.score() > s) {
                best = Some((i, p.score()));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use katara_crowd::{Answer, CrowdConfig, Question};

    /// A compact world: countries, capitals, players; the KB misses one
    /// capital fact and the table has one true error.
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
            // KB incompleteness: S. Africa's capital fact is missing.
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

    /// Ground truth oracle: knows the correct pattern and the real world.
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

    #[test]
    fn end_to_end_clean() {
        let (mut kb, t) = setting();
        let katara = Katara::default();
        let mut crowd = crowd();
        let report = katara.clean(&t, &mut kb, &mut crowd).unwrap();

        // The validated pattern covers all three columns.
        assert_eq!(report.pattern.typed_columns(), vec![0, 1, 2]);
        // Row 2 (Pirlo/Italy/Madrid) is the only erroneous tuple.
        assert_eq!(report.annotation.erroneous_rows(), vec![2]);
        // Its top repair fixes Madrid to Rome.
        let (row, repairs) = &report.repairs[0];
        assert_eq!(*row, 2);
        assert!(!repairs.is_empty());
        assert!(repairs[0]
            .changes
            .iter()
            .any(|(col, val)| *col == 2 && val == "Rome"));
        // Enrichment inserted the missing S. Africa capital fact.
        assert!(report.annotation.enriched_facts >= 1);
    }

    #[test]
    fn reliable_run_reports_no_degradation() {
        let (mut kb, t) = setting();
        let katara = Katara::default();
        let mut crowd = crowd();
        let report = katara.clean(&t, &mut kb, &mut crowd).unwrap();
        assert!(
            !report.degradation.is_degraded(),
            "{:?}",
            report.degradation
        );
        // Everything except the informational cost accounting is at its
        // clean-run default; crowd cost itself is nonzero but benign.
        assert!(report.degradation.questions_asked > 0);
        assert_eq!(
            report.degradation,
            DegradationReport {
                questions_asked: report.degradation.questions_asked,
                budget_remaining: report.degradation.budget_remaining,
                ..DegradationReport::default()
            }
        );
    }

    #[test]
    fn faulty_run_completes_and_reports_degradation() {
        let (mut kb, t) = setting();
        let katara = Katara::default();
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                faults: katara_crowd::FaultPlan {
                    dropout_rate: 0.4,
                    abstain_rate: 0.2,
                    latency_ms: (5, 50),
                    ..katara_crowd::FaultPlan::default()
                },
                ..CrowdConfig::default()
            },
            oracle(),
        )
        .unwrap();
        let report = katara
            .clean(&t, &mut kb, &mut crowd)
            .expect("pipeline must survive a faulty crowd");
        let d = &report.degradation;
        assert!(d.is_degraded());
        assert!(d.dropouts > 0);
        assert!(d.abstentions > 0);
        assert!(d.simulated_latency_ms > 0);
        // Counters in the report match the crowd's own accounting (the
        // crowd was fresh, so no snapshot offset).
        let s = crowd.stats();
        assert_eq!(d.dropouts, s.dropouts);
        assert_eq!(d.abstentions, s.abstentions);
        assert_eq!(d.questions_retried, s.questions_retried);
        assert_eq!(d.no_quorum_questions, s.no_quorum_questions);
        // No repairs are generated for unresolved rows.
        for (row, _) in &report.repairs {
            assert!(!report.annotation.unresolved_rows().contains(row));
        }
    }

    #[test]
    fn no_pattern_errors_out() {
        let (mut kb, _) = setting();
        let mut t = Table::with_opaque_columns("gibberish", 2);
        t.push_text_row(&["Xqz", "Wvu"]);
        let katara = Katara::default();
        let mut crowd = crowd();
        let err = katara.clean(&t, &mut kb, &mut crowd).unwrap_err();
        assert!(matches!(err, KataraError::NoPatternFound { .. }));
    }

    #[test]
    fn pre_discovery_deadline_errors_out() {
        let (mut kb, t) = setting();
        let katara = Katara::new(KataraConfig {
            deadline: Deadline::after_checks(0),
            ..KataraConfig::default()
        });
        let mut crowd = crowd();
        let err = katara.clean(&t, &mut kb, &mut crowd).unwrap_err();
        assert!(matches!(
            err,
            KataraError::DeadlineExceeded { phase: "resolve" }
        ));
        // An externally cancelled run behaves the same way.
        let dl = Deadline::after_checks(1_000_000);
        dl.cancel();
        let katara = Katara::new(KataraConfig {
            deadline: dl,
            ..KataraConfig::default()
        });
        let err = katara.clean(&t, &mut kb, &mut crowd).unwrap_err();
        assert!(matches!(err, KataraError::DeadlineExceeded { .. }));
    }

    #[test]
    fn mid_run_deadline_degrades_instead_of_erroring() {
        // Checks consumed before validation: clean entry, post-resolve,
        // and the validate-boundary check itself.
        //
        // n = 2 trips at the validate boundary: validation is skipped
        // and the top-scored pattern is taken unvalidated.
        let (mut kb, t) = setting();
        let katara = Katara::new(KataraConfig {
            deadline: Deadline::after_checks(2),
            ..KataraConfig::default()
        });
        let mut crowd = crowd();
        let report = katara
            .clean(&t, &mut kb, &mut crowd)
            .expect("post-discovery expiry must degrade, not error");
        let d = &report.degradation;
        assert!(d.deadline_expired);
        assert_eq!(d.deadline_phase, Some("validate"));
        assert!(d.is_degraded());
        assert!(d.pattern_partially_validated);
        assert_eq!(report.variables_validated, 0);

        // n = 3 survives validation (this tiny world discovers a single
        // pattern, so MUVF has nothing to ask) and trips on the first
        // annotation row: every tuple degrades to Unresolved and repair
        // is skipped.
        let (mut kb3, t3) = setting();
        let katara3 = Katara::new(KataraConfig {
            deadline: Deadline::after_checks(3),
            ..KataraConfig::default()
        });
        let mut crowd3 = self::crowd();
        let report3 = katara3.clean(&t3, &mut kb3, &mut crowd3).unwrap();
        let d3 = &report3.degradation;
        assert_eq!(d3.deadline_phase, Some("annotate"));
        assert_eq!(d3.unresolved_tuples, t3.num_rows());
        assert!(report3.repairs.is_empty());

        // The completed prefix matches an undeadlined run: discovery
        // statistics (and for n = 3 the validated pattern) are identical.
        let (mut kb2, t2) = setting();
        let mut crowd2 = self::crowd();
        let full = Katara::default().clean(&t2, &mut kb2, &mut crowd2).unwrap();
        assert_eq!(
            report.discovery_stats, full.discovery_stats,
            "phases before the expiry must be byte-identical"
        );
        assert_eq!(
            format!("{:?}", report3.pattern),
            format!("{:?}", full.pattern)
        );
    }

    /// [`setting`] with the error fixed: every row validates.
    fn clean_setting() -> (Kb, Table) {
        let (kb, mut t) = setting();
        t.set_cell(2, 2, katara_table::Value::from_cell("Rome"));
        (kb, t)
    }

    /// A clean with its own recorder, returning the report and the
    /// instance graphs its repair phase enumerated.
    fn clean_counting_graphs(
        config: KataraConfig,
        t: &Table,
        kb: &mut Kb,
        caches: &mut RunCaches,
    ) -> Result<(CleaningReport, u64), KataraError> {
        let rec = Arc::new(katara_obs::RunRecorder::new());
        let katara = Katara::new(KataraConfig {
            recorder: rec.clone(),
            ..config
        });
        let (report, _) = katara.clean_caching(t, kb, &mut crowd(), None, caches)?;
        Ok((report, rec.counter_total(Counter::RepairGraphsBuilt)))
    }

    #[test]
    fn a_clean_with_nothing_to_repair_builds_no_index() {
        let (mut kb, t) = clean_setting();
        let (report, graphs) = clean_counting_graphs(
            KataraConfig::default(),
            &t,
            &mut kb,
            &mut RunCaches::default(),
        )
        .unwrap();
        assert!(report.annotation.erroneous_rows().is_empty());
        assert!(report.repairs.is_empty());
        assert_eq!(graphs, 0, "no erroneous row: no instance graph");

        let (mut kb, t) = setting();
        let (report, graphs) = clean_counting_graphs(
            KataraConfig::default(),
            &t,
            &mut kb,
            &mut RunCaches::default(),
        )
        .unwrap();
        assert_eq!(report.repairs.len(), 1);
        assert!(graphs > 0, "an erroneous row builds the index");
    }

    /// The index build polls the deadline once per seed entity: a
    /// deadline that falls due inside it stops the build, the run
    /// reports what a build run to the end would (phase `repair`, no
    /// repairs), and the cut-short index is never cached.
    #[test]
    fn a_deadline_inside_the_index_build_cuts_it_short() {
        let (mut kb, t) = setting();
        let (full, full_graphs) = clean_counting_graphs(
            KataraConfig::default(),
            &t,
            &mut kb,
            &mut RunCaches::default(),
        )
        .unwrap();
        assert!(full_graphs > 1 && !full.repairs.is_empty());
        let deadlined = |checks| KataraConfig {
            deadline: Deadline::after_checks(checks),
            ..KataraConfig::default()
        };
        // The smallest budget that reaches the repair phase trips at its
        // boundary check; two more pass it and the build's first seed
        // poll, so the build walks from exactly one seed entity.
        let boundary = (0..1_000)
            .find(|&n| {
                let (mut kb, t) = setting();
                clean_counting_graphs(deadlined(n), &t, &mut kb, &mut RunCaches::default())
                    .is_ok_and(|(report, _)| report.degradation.deadline_phase == Some("repair"))
            })
            .expect("some budget reaches the repair phase");

        let (mut kb, t) = setting();
        let mut caches = RunCaches::default();
        let (cut, graphs) =
            clean_counting_graphs(deadlined(boundary + 2), &t, &mut kb, &mut caches).unwrap();
        assert_eq!(cut.degradation.deadline_phase, Some("repair"));
        assert!(cut.repairs.is_empty());
        assert_eq!(
            format!("{:?}", cut.annotation),
            format!("{:?}", full.annotation)
        );
        assert!(graphs < full_graphs, "{graphs} of {full_graphs} graphs");
        assert!(
            caches.repairs.index.is_none(),
            "a partial index is never kept"
        );

        // The next run under the same key builds the whole index again.
        let mut next = RunCaches {
            repairs: caches.repairs,
            ..RunCaches::default()
        };
        let (after, graphs) =
            clean_counting_graphs(KataraConfig::default(), &t, &mut kb, &mut next).unwrap();
        assert_eq!(graphs, full_graphs);
        assert_eq!(
            format!("{:?}", after.repairs),
            format!("{:?}", full.repairs)
        );
    }

    #[test]
    fn inert_deadline_matches_no_deadline_run() {
        let (mut kb_a, t) = setting();
        let (mut kb_b, _) = setting();
        let mut crowd_a = crowd();
        let mut crowd_b = crowd();
        let a = Katara::default()
            .clean(&t, &mut kb_a, &mut crowd_a)
            .unwrap();
        let b = Katara::new(KataraConfig {
            deadline: Deadline::none(),
            ..KataraConfig::default()
        })
        .clean(&t, &mut kb_b, &mut crowd_b)
        .unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn a_snapshot_of_another_table_is_refused() {
        let (mut kb, t) = setting();
        let res = TableResolution::build(&t, &kb, usize::MAX);
        // Rossi's and Pirlo's capitals swapped: the same shape.
        let mut swapped = Table::with_opaque_columns("soccer", 3);
        swapped.push_text_row(&["Rossi", "Italy", "Madrid"]);
        swapped.push_text_row(&["Klate", "S. Africa", "Pretoria"]);
        swapped.push_text_row(&["Pirlo", "Italy", "Rome"]);
        swapped.push_text_row(&["Ramos", "Spain", "Madrid"]);
        // Two more rows after the same four.
        let mut longer = t.clone();
        longer.push_text_row(&["Benzema", "France", "Paris"]);
        longer.push_text_row(&["Rossi", "Italy", "Rome"]);
        for other in [&swapped, &longer] {
            let err = Katara::default()
                .clean_with_resolution(other, &mut kb, &mut crowd(), Some(&res))
                .unwrap_err();
            assert!(matches!(err, KataraError::ForeignSnapshot { .. }), "{err}");
        }
    }

    #[test]
    fn a_respelled_table_keeps_its_snapshot() {
        let (kb, t) = setting();
        let res = TableResolution::build(&t, &kb, usize::MAX);
        // Case and runs of spaces normalize away.
        let mut respelled = Table::with_opaque_columns("soccer", 3);
        respelled.push_text_row(&["ROSSI", "italy", "Rome"]);
        respelled.push_text_row(&["Klate", "S.   Africa", "Pretoria"]);
        respelled.push_text_row(&["Pirlo", "  Italy ", "MADRID"]);
        respelled.push_text_row(&["Ramos", "Spain", "Madrid"]);
        let (mut kb_injected, mut kb_fresh) = (kb.clone(), kb);
        let injected = Katara::default()
            .clean_with_resolution(&respelled, &mut kb_injected, &mut crowd(), Some(&res))
            .unwrap();
        let fresh = Katara::default()
            .clean(&respelled, &mut kb_fresh, &mut crowd())
            .unwrap();
        assert_eq!(format!("{injected:?}"), format!("{fresh:?}"));
        assert_eq!(
            katara_kb::ntriples::to_string(&kb_injected),
            katara_kb::ntriples::to_string(&kb_fresh)
        );
    }

    #[test]
    fn select_kb_prefers_the_covering_kb() {
        let (kb_good, t) = setting();
        // A KB about something else entirely.
        let mut b = katara_kb::KbBuilder::new().with_name("mini-imdb");
        let film = b.class("film");
        b.entity("Vertigo", &[film]);
        let kb_bad = b.finalize();

        let pick = select_kb(
            &t,
            &[&kb_bad, &kb_good],
            &CandidateConfig::default(),
            &DiscoveryConfig::default(),
        );
        let (idx, score) = pick.expect("the good KB yields a pattern");
        assert_eq!(idx, 1);
        assert!(score > 0.0);
    }

    #[test]
    fn select_kb_none_when_nothing_matches() {
        let mut b = katara_kb::KbBuilder::new();
        let film = b.class("film");
        b.entity("Vertigo", &[film]);
        let kb = b.finalize();
        let mut t = Table::with_opaque_columns("t", 1);
        t.push_text_row(&["Nonsense"]);
        assert!(select_kb(
            &t,
            &[&kb],
            &CandidateConfig::default(),
            &DiscoveryConfig::default()
        )
        .is_none());
    }
}
