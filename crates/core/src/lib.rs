//! # katara-core — the KATARA data cleaning system
//!
//! The primary contribution of *KATARA: A Data Cleaning System Powered by
//! Knowledge Bases and Crowdsourcing* (SIGMOD 2015), implemented end to
//! end:
//!
//! * [`pattern`] — table patterns (§3.2): labelled directed graphs mapping
//!   columns to KB types and column pairs to KB relationships, with the
//!   full/partial tuple match semantics;
//! * [`candidates`] — candidate type/relationship discovery with tf-idf
//!   ranking (§4.1);
//! * [`scoring`] — the pattern scoring model combining tf-idf with PMI
//!   coherence (§4.2);
//! * [`rank_join`] — top-k pattern discovery with early termination and
//!   type pruning (Algorithms 1–2, §4.3), plus the exhaustive baseline
//!   used for ablation;
//! * [`validation`] — crowd pattern validation with entropy-based
//!   question scheduling (Algorithm 3, §5): MUVF and the AVI baseline;
//! * [`annotation`] — data annotation by KB and crowd with KB enrichment
//!   (§6.1);
//! * [`repair`] — top-k possible repairs from KB instance graphs via
//!   inverted lists (Algorithm 4, §6.2);
//! * [`derived`] — multi-hop (composed) pattern edges, the §9 future-work
//!   extension;
//! * [`ingest`] — unified accounting for what lenient KB/table ingestion
//!   quarantined or repaired, folded into the degradation report;
//! * [`pipeline`] — the end-to-end facade gluing the modules together
//!   (§2), including multi-KB selection.
//!
//! Every stage reports what it did through the zero-dependency
//! `katara-obs` layer (re-exported via the [`prelude`]): attach a
//! [`katara_obs::RunRecorder`] to [`pipeline::KataraConfig::recorder`]
//! and a full `clean` run produces a per-phase span tree plus
//! deterministic counters — KB probes, snapshot-tier hits, crowd spend —
//! exportable as stable JSON ([`katara_obs::RunMetrics`]).
//!
//! ```
//! use katara_core::prelude::*;
//! use katara_crowd::{Answer, Crowd, CrowdConfig, FixedOracle};
//! use katara_kb::KbBuilder;
//! use katara_table::Table;
//!
//! // Build the paper's Figure 1 setting in miniature.
//! let mut b = KbBuilder::new();
//! let country = b.class("country");
//! let capital = b.class("capital");
//! let has_capital = b.property("hasCapital");
//! let italy = b.entity("Italy", &[country]);
//! let rome = b.entity("Rome", &[capital]);
//! b.fact(italy, has_capital, rome);
//! let kb = b.finalize();
//!
//! let mut t = Table::with_opaque_columns("pairs", 2);
//! t.push_text_row(&["Italy", "Rome"]);
//!
//! let cands = discover_candidates(&t, &kb, &CandidateConfig::default());
//! let patterns = discover_topk(&t, &kb, &cands, 3, &DiscoveryConfig::default());
//! assert!(!patterns.is_empty());
//! let best = &patterns[0];
//! assert_eq!(best.node_for_column(0).unwrap().class, Some(country));
//! ```

#![warn(missing_docs)]

pub mod annotation;
pub mod candidates;
pub mod delta;
pub mod derived;
pub mod error;
pub mod ingest;
pub mod pattern;
pub mod pipeline;
pub mod rank_join;
pub mod repair;
pub mod resolve;
pub mod scoring;
pub mod validation;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::annotation::{
        annotate, annotate_resolved, AnnotationConfig, AnnotationResult, Category, TupleStatus,
    };
    pub use crate::candidates::{
        discover_candidates, discover_candidates_resolved, CandidateConfig, CandidateSet,
        RelCandidate, TypeCandidate,
    };
    pub use crate::delta::DeltaSession;
    pub use crate::error::KataraError;
    pub use crate::ingest::IngestSummary;
    pub use crate::pattern::{MatchReport, PatternEdge, PatternNode, TablePattern, TupleMatch};
    pub use crate::pipeline::{CleaningReport, DegradationReport, Katara, KataraConfig};
    pub use crate::rank_join::{discover_exhaustive, discover_topk, DiscoveryConfig};
    pub use crate::repair::{
        generate_repairs, generate_repairs_resolved, topk_repairs, topk_repairs_resolved, Repair,
        RepairConfig, RepairIndex,
    };
    pub use crate::resolve::TableResolution;
    pub use crate::scoring::{score_pattern, ScoringConfig};
    pub use crate::validation::{
        validate_patterns, SchedulingStrategy, ValidationConfig, ValidationOutcome,
    };
    pub use katara_exec::{Deadline, Threads};
    pub use katara_kb::{DeltaOp, EnrichmentDelta};
    pub use katara_obs::{NoopRecorder, Recorder, RunMetrics, RunRecorder, Span};
    pub use katara_table::{TableDelta, TableEdit};
}

pub use prelude::*;
