//! The live-query oracle for the resolve gates: a clean assembled from
//! the public phase calls, with annotation and repair on their
//! live-query entry points ([`annotate`], [`generate_repairs`]), so no
//! stage after discovery reads a [`TableResolution`] snapshot.
//! Discovery's own snapshot is pinned to the live KB queries by the
//! tier check in `resolve_equivalence.rs`.

use katara_core::prelude::*;
use katara_core::rank_join::discover_topk_with_stats;
use katara_crowd::{Crowd, Oracle};
use katara_kb::Kb;
use katara_table::Table;

/// What [`Katara::clean`] must return for `config`, `table`, `kb` and
/// `crowd`, degradation report included. Deadlines are not modelled:
/// the gates run without one.
pub fn live_clean<O: Oracle>(
    config: &KataraConfig,
    table: &Table,
    kb: &mut Kb,
    crowd: &mut Crowd<O>,
) -> Result<CleaningReport, KataraError> {
    crowd.set_deadline(Deadline::none());
    let stats_before = crowd.stats().clone();
    let cands = discover_candidates(table, kb, &config.candidates);
    let (patterns, discovery_stats) =
        discover_topk_with_stats(table, kb, &cands, config.patterns_k, &config.discovery);
    if patterns.is_empty() {
        return Err(KataraError::NoPatternFound {
            table: table.name().to_string(),
            kb: kb.name().to_string(),
        });
    }
    let outcome = validate_patterns(
        table,
        kb,
        patterns,
        crowd,
        &config.validation,
        config.strategy,
    );
    let annotation = annotate(table, &outcome.pattern, kb, crowd, &config.annotation);
    let pattern = annotation.pattern.clone();
    let index = RepairIndex::build(kb, &pattern, &config.repair);
    let repairs = generate_repairs(
        &index,
        kb,
        &pattern,
        table,
        &annotation.erroneous_rows(),
        config.repairs_k,
        &config.repair,
        config.threads,
    );
    let run = crowd.stats().since(&stats_before);
    let degradation = DegradationReport {
        questions_retried: run.questions_retried,
        escalations: run.escalations,
        dropouts: run.dropouts,
        abstentions: run.abstentions,
        no_quorum_questions: run.no_quorum_questions,
        budget_denied: run.budget_denied,
        budget_exhausted: crowd.is_budget_exhausted(),
        pattern_partially_validated: !outcome.fully_validated,
        no_quorum_variables: outcome.no_quorum_variables,
        unresolved_tuples: annotation.unresolved_rows().len(),
        simulated_latency_ms: run.simulated_latency_ms,
        questions_asked: run.questions(),
        budget_remaining: crowd.budget_remaining(),
        deadline_denied: run.deadline_denied,
        posterior_confident: run.posterior_confident,
        questions_saved: run.questions_saved,
        ..DegradationReport::default()
    };
    Ok(CleaningReport {
        pattern,
        variables_validated: outcome.variables_validated,
        discovery_stats,
        annotation,
        repairs,
        degradation,
    })
}
