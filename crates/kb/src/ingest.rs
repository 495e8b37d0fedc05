//! Ingestion policy, quarantine, and audit types for KB loading.
//!
//! KATARA's paper treats the KB as trusted, but a production ingress
//! cannot: real N-Triples dumps contain malformed lines, cyclic
//! `subClassOf` chains, dangling references, and pathological literals.
//! This module defines the knobs and reports that make the KB loading
//! boundary panic-free and *observable*:
//!
//! * [`IngestPolicy`] — strict (fail on the first defect) or lenient
//!   (quarantine defects and keep going), plus resource caps that turn
//!   exhaustion inputs into typed errors instead of OOM;
//! * [`Quarantined`] — one rejected input line with line number, byte
//!   offset, and error kind;
//! * [`KbAudit`] — what the builder's audit-and-repair pass found and did
//!   (cycle edges dropped, label collisions);
//! * [`IngestReport`] — the full per-load account, consumed by
//!   `katara-core`'s degradation machinery and the CLI.

use std::fmt;

/// How defects encountered during ingestion are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum IngestMode {
    /// Fail on the first defect with a typed, line-numbered error.
    #[default]
    Strict,
    /// Quarantine defective lines (subject to caps) and keep loading;
    /// hierarchy cycles are repaired by dropping the closing edge.
    Lenient,
}

/// Knobs for one KB load.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestPolicy {
    /// Strict or lenient defect handling.
    pub mode: IngestMode,
    /// Maximum fraction of non-blank lines that may be quarantined before
    /// the load aborts with [`crate::ntriples::NtError::TooManyQuarantined`]
    /// even in lenient mode. Guards against feeding a binary blob through
    /// the lenient path one "line" at a time.
    pub max_quarantined_fraction: f64,
    /// Maximum accepted literal length in bytes; longer literals are a
    /// defect (quarantined or fatal by mode). Caps memory spent on a
    /// single pathological cell.
    pub max_literal_len: usize,
    /// Maximum accepted IRI / blank-node-label length in bytes.
    pub max_term_len: usize,
    /// Maximum number of [`Quarantined`] diagnostics *stored* (the count
    /// keeps incrementing past it). Bounds report memory on huge dirty
    /// dumps.
    pub max_quarantine_entries: usize,
}

impl Default for IngestPolicy {
    fn default() -> Self {
        IngestPolicy::strict()
    }
}

impl IngestPolicy {
    /// The historical behaviour: first defect aborts, no caps.
    pub fn strict() -> Self {
        IngestPolicy {
            mode: IngestMode::Strict,
            max_quarantined_fraction: 1.0,
            max_literal_len: usize::MAX,
            max_term_len: usize::MAX,
            max_quarantine_entries: 1024,
        }
    }

    /// Recovering mode with production-shaped caps: defects are
    /// quarantined, at most half of the input may be defective, and
    /// single terms/literals are capped at 1 MiB.
    pub fn lenient() -> Self {
        IngestPolicy {
            mode: IngestMode::Lenient,
            max_quarantined_fraction: 0.5,
            max_literal_len: 1 << 20,
            max_term_len: 1 << 20,
            max_quarantine_entries: 1024,
        }
    }

    /// True in lenient mode.
    pub fn is_lenient(&self) -> bool {
        self.mode == IngestMode::Lenient
    }
}

/// Why a line was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuarantineKind {
    /// The line was not a well-formed N-Triples statement.
    Syntax,
    /// A literal exceeded [`IngestPolicy::max_literal_len`].
    OversizedLiteral,
    /// An IRI or blank-node label exceeded [`IngestPolicy::max_term_len`].
    OversizedTerm,
}

impl fmt::Display for QuarantineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineKind::Syntax => write!(f, "syntax"),
            QuarantineKind::OversizedLiteral => write!(f, "oversized literal"),
            QuarantineKind::OversizedTerm => write!(f, "oversized term"),
        }
    }
}

/// One quarantined input line, with enough provenance to find it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// 1-based line number.
    pub line: usize,
    /// Byte offset of the line start within the input.
    pub byte_offset: usize,
    /// What class of defect this was.
    pub kind: QuarantineKind,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Quarantined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {} (byte {}): {}: {}",
            self.line, self.byte_offset, self.kind, self.message
        )
    }
}

/// A hierarchy edge the audit pass dropped to keep the DAG acyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokenEdge {
    /// Which hierarchy (`"subClassOf"` / `"subPropertyOf"`).
    pub hierarchy: &'static str,
    /// Child-side name of the dropped `child subXOf parent` edge.
    pub child: String,
    /// Parent-side name of the dropped edge.
    pub parent: String,
    /// True for a trivial `x subXOf x` self-loop, false for an edge that
    /// would have closed a longer cycle.
    pub self_loop: bool,
}

impl fmt::Display for BrokenEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.self_loop {
            write!(f, "{}: dropped self-loop {:?}", self.hierarchy, self.child)
        } else {
            write!(
                f,
                "{}: dropped cycle-closing edge {:?} -> {:?}",
                self.hierarchy, self.child, self.parent
            )
        }
    }
}

/// Two or more distinct resources sharing one label. Not an error (KATARA
/// disambiguates by type), but worth surfacing: unexpected collisions are
/// a classic symptom of a mangled dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelCollision {
    /// The shared label.
    pub label: String,
    /// Names of the colliding resources, in declaration order.
    pub resources: Vec<String>,
}

/// What the builder's audit-and-repair pass observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KbAudit {
    /// Hierarchy edges dropped to break cycles (deterministic: the edge
    /// that would have *closed* each cycle, in declaration order).
    pub broken_edges: Vec<BrokenEdge>,
    /// Labels shared by more than one resource.
    pub label_collisions: Vec<LabelCollision>,
}

impl KbAudit {
    /// True when the audit found nothing to repair or flag.
    pub fn is_clean(&self) -> bool {
        self.broken_edges.is_empty() && self.label_collisions.is_empty()
    }
}

/// The full account of one KB load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Non-blank, non-comment lines seen.
    pub total_statements: usize,
    /// Statements accepted into the KB.
    pub accepted: usize,
    /// Number of quarantined lines (may exceed `quarantined.len()` when
    /// the diagnostic store cap was hit).
    pub quarantined_count: usize,
    /// Stored per-line diagnostics, capped at
    /// [`IngestPolicy::max_quarantine_entries`].
    pub quarantined: Vec<Quarantined>,
    /// Builder audit results: broken cycles, label collisions.
    pub audit: KbAudit,
    /// IRIs referenced as fact objects but never given a type, label, or
    /// outgoing statement of their own — likely truncated-dump artifacts.
    pub dangling_refs: Vec<String>,
}

impl IngestReport {
    /// True when the load deviated from a clean strict parse in any way
    /// that changed the data (quarantine or repair). Dangling references
    /// and label collisions are advisory only: they occur in legitimate
    /// dumps and drop no data.
    pub fn is_degraded(&self) -> bool {
        self.quarantined_count > 0 || !self.audit.broken_edges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_strict() {
        assert_eq!(IngestPolicy::default().mode, IngestMode::Strict);
        assert!(IngestPolicy::lenient().is_lenient());
    }

    #[test]
    fn report_degradation_rules() {
        let mut r = IngestReport::default();
        assert!(!r.is_degraded());
        r.dangling_refs.push("x".into());
        r.audit.label_collisions.push(LabelCollision {
            label: "l".into(),
            resources: vec!["a".into(), "b".into()],
        });
        assert!(!r.is_degraded(), "advisory findings are not degradation");
        r.quarantined_count = 1;
        assert!(r.is_degraded());
        let mut r = IngestReport::default();
        r.audit.broken_edges.push(BrokenEdge {
            hierarchy: "subClassOf",
            child: "a".into(),
            parent: "b".into(),
            self_loop: false,
        });
        assert!(r.is_degraded(), "a repaired cycle is degradation");
    }

    #[test]
    fn display_formats() {
        let q = Quarantined {
            line: 3,
            byte_offset: 41,
            kind: QuarantineKind::Syntax,
            message: "unterminated IRI".into(),
        };
        let s = q.to_string();
        assert!(s.contains("line 3") && s.contains("byte 41") && s.contains("syntax"));
        let e = BrokenEdge {
            hierarchy: "subClassOf",
            child: "a".into(),
            parent: "b".into(),
            self_loop: false,
        };
        assert!(e.to_string().contains("cycle-closing"));
        let e = BrokenEdge {
            self_loop: true,
            ..e
        };
        assert!(e.to_string().contains("self-loop"));
    }
}
