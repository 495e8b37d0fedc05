//! Library-side calls shared by the workloads: the pipeline configs the
//! workloads run, the daemon's crowd for in-process replays, and a clean
//! assembled from the same public phase calls
//! `Katara::clean_with_resolution` makes, each wrapped in a span.

use std::sync::Arc;

use katara_core::annotation::{annotate_resolved, AnnotationConfig};
use katara_core::candidates::{discover_candidates_resolved, CandidateConfig};
use katara_core::rank_join::{discover_topk_with_stats, DiscoveryConfig};
use katara_core::repair::{generate_repairs_resolved, RepairConfig, RepairIndex};
use katara_core::validation::{validate_patterns, ValidationConfig};
use katara_core::{CleaningReport, DegradationReport, KataraConfig, KataraError, TableResolution};
use katara_crowd::{Answer, Crowd, CrowdConfig, Oracle, Question};
use katara_exec::Deadline;
use katara_kb::Kb;
use katara_obs::Recorder;
use katara_table::Table;

use crate::trace::{SpanId, Tracer};

/// The batch clean of `batch-cold` (the resolve bench's config):
/// enrichment off, one question per variable, default threads.
pub fn batch_config(recorder: Arc<dyn Recorder>) -> KataraConfig {
    KataraConfig {
        annotation: AnnotationConfig {
            enrich_kb: false,
            ..AnnotationConfig::default()
        },
        validation: ValidationConfig {
            questions_per_variable: 1,
            ..ValidationConfig::default()
        },
        recorder,
        ..KataraConfig::default()
    }
}

/// What the daemon runs for one `/clean` request (`ServerConfig`
/// defaults): enrichment on, one question per variable.
pub fn serve_clean_config(recorder: Arc<dyn Recorder>) -> KataraConfig {
    let server = katara_serve::ServerConfig::default();
    KataraConfig {
        repairs_k: server.repairs_k,
        threads: server.threads,
        candidates: CandidateConfig {
            threads: server.threads,
            ..CandidateConfig::default()
        },
        validation: ValidationConfig {
            questions_per_variable: 1,
            ..ValidationConfig::default()
        },
        recorder,
        ..KataraConfig::default()
    }
}

/// What the daemon runs for a `/delta` session: as `/clean`, with
/// enrichment off.
pub fn serve_delta_config(recorder: Arc<dyn Recorder>) -> KataraConfig {
    KataraConfig {
        annotation: AnnotationConfig {
            enrich_kb: false,
            ..AnnotationConfig::default()
        },
        ..serve_clean_config(recorder)
    }
}

/// The daemon's crowd under `ServePolicy::Trust`: one perfect worker who
/// accepts discovery's top candidate and presumes missing facts true.
pub fn trust_crowd() -> Crowd<impl Oracle> {
    let oracle = |q: &Question| match q {
        Question::Fact { .. } => Answer::Bool(true),
        _ => Answer::Choice(0),
    };
    Crowd::new(
        CrowdConfig {
            replication: 1,
            worker_accuracy: 1.0,
            ..CrowdConfig::default()
        },
        oracle,
    )
    .expect("trust crowd config is valid")
}

/// Run `Katara::clean_with_resolution` phase by phase through the same
/// public calls, recording a span per phase under one `clean` span. With
/// `shared` the snapshot is adopted; otherwise it is built (and timed as
/// `resolve.build`). Returns the report and the snapshot it used, if it
/// built one.
#[allow(clippy::too_many_arguments)]
pub fn assembled_clean<O: Oracle>(
    config: &KataraConfig,
    table: &Table,
    kb: &mut Kb,
    crowd: &mut Crowd<O>,
    shared: Option<&TableResolution>,
    tracer: &Tracer,
    op: u64,
    parent: Option<SpanId>,
) -> Result<(CleaningReport, Option<TableResolution>), KataraError> {
    let rec = config.recorder.clone();
    crowd.set_deadline(Deadline::none());
    let candidates_cfg = CandidateConfig {
        recorder: rec.clone(),
        ..config.candidates.clone()
    };
    let discovery_cfg = DiscoveryConfig {
        recorder: rec.clone(),
        ..config.discovery.clone()
    };
    let repair_cfg = RepairConfig {
        recorder: rec.clone(),
        ..config.repair.clone()
    };
    let root = tracer.enter("clean", op, parent);
    let at = root.id();
    let stats_before = crowd.stats().clone();

    let built = match shared {
        Some(_) => None,
        None => {
            let _s = tracer.enter("resolve.build", op, at);
            Some(
                TableResolution::build(table, kb, config.candidates.max_rows)
                    .with_recorder(rec.clone()),
            )
        }
    };
    let resolution = shared.or(built.as_ref());

    let (patterns, discovery_stats) = {
        let _s = tracer.enter("discovery.run", op, at);
        let cands = discover_candidates_resolved(
            table,
            kb,
            resolution.expect("snapshot mode"),
            &candidates_cfg,
        );
        discover_topk_with_stats(table, kb, &cands, config.patterns_k, &discovery_cfg)
    };
    if patterns.is_empty() {
        return Err(KataraError::NoPatternFound {
            table: table.name().to_string(),
            kb: kb.name().to_string(),
        });
    }
    let outcome = {
        let _s = tracer.enter("validation.run", op, at);
        validate_patterns(
            table,
            kb,
            patterns,
            crowd,
            &config.validation,
            config.strategy,
        )
    };
    let annotation = {
        let _s = tracer.enter("annotation.run", op, at);
        annotate_resolved(
            table,
            &outcome.pattern,
            kb,
            crowd,
            &config.annotation,
            resolution,
        )
    };
    let effective = annotation.pattern.clone();
    let index = {
        let _s = tracer.enter("repair.index", op, at);
        RepairIndex::build(kb, &effective, &repair_cfg)
    };
    let repairs = {
        let _s = tracer.enter("repair.generate", op, at);
        generate_repairs_resolved(
            &index,
            kb,
            &effective,
            table,
            &annotation.erroneous_rows(),
            config.repairs_k,
            &repair_cfg,
            config.threads,
            resolution,
        )
    };
    drop(root);

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
        ingest_quarantined: 0,
        ingest_repaired_edges: 0,
        questions_asked: run.questions(),
        budget_remaining: crowd.budget_remaining(),
        deadline_expired: false,
        deadline_phase: None,
        deadline_denied: run.deadline_denied,
        enrichment_dropped: 0,
        posterior_confident: run.posterior_confident,
        questions_saved: run.questions_saved,
    };
    let report = CleaningReport {
        pattern: effective,
        variables_validated: outcome.variables_validated,
        discovery_stats,
        annotation,
        repairs,
        degradation,
    };
    Ok((report, built))
}
