//! Error type for the KATARA pipeline.

use std::fmt;

use katara_crowd::CrowdError;
use katara_kb::ntriples::NtError;
use katara_kb::KbError;
use katara_table::csv::CsvError;

/// Errors surfaced by the cleaning pipeline.
///
/// Marked `#[non_exhaustive]`: future pipeline stages may add variants
/// without a breaking change, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum KataraError {
    /// Pattern discovery produced no candidate pattern at all; the paper's
    /// §2 behaviour is "KATARA will terminate" — callers surface this.
    NoPatternFound {
        /// Table the discovery ran on.
        table: String,
        /// KB it ran against.
        kb: String,
    },
    /// A pattern references a column outside the table.
    ColumnOutOfRange {
        /// Offending column index.
        column: usize,
        /// The table's column count.
        num_columns: usize,
    },
    /// A pattern is structurally invalid (e.g. an edge endpoint without a
    /// node).
    MalformedPattern(String),
    /// The crowd platform could not be set up or used.
    Crowd(CrowdError),
    /// The knowledge-base layer rejected a construction or query.
    Kb(KbError),
    /// A KB could not be ingested from N-Triples text.
    KbIngest(NtError),
    /// A table could not be ingested from CSV text.
    TableIngest(CsvError),
    /// A [`TableDelta`](katara_table::TableDelta) edit could not be
    /// applied by the incremental engine. Edits before the offending one
    /// stay applied; the session remains consistent.
    BadDelta {
        /// Zero-based index of the offending edit within the delta.
        edit: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// The run's [`Deadline`](katara_exec::Deadline) expired before the
    /// named phase could even start producing a partial result. Later
    /// expiry (once discovery has yielded a pattern) degrades the
    /// [`CleaningReport`](crate::pipeline::CleaningReport) instead of
    /// erroring — see
    /// [`DegradationReport::deadline_expired`](crate::pipeline::DegradationReport::deadline_expired).
    DeadlineExceeded {
        /// The pipeline phase that could not start.
        phase: &'static str,
    },
    /// A [`TableResolution`](crate::resolve::TableResolution) passed to
    /// [`Katara::clean_with_resolution`](crate::pipeline::Katara::clean_with_resolution)
    /// was built for another table: the shapes differ, or a cell does not
    /// normalize to the value the snapshot holds for it.
    ForeignSnapshot {
        /// What differs.
        detail: String,
    },
}

impl fmt::Display for KataraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KataraError::NoPatternFound { table, kb } => {
                write!(
                    f,
                    "no table pattern found for table {table:?} against KB {kb:?}"
                )
            }
            KataraError::ColumnOutOfRange {
                column,
                num_columns,
            } => write!(f, "column {column} out of range (table has {num_columns})"),
            KataraError::MalformedPattern(msg) => write!(f, "malformed pattern: {msg}"),
            KataraError::Crowd(_) => write!(f, "crowd platform error"),
            KataraError::Kb(_) => write!(f, "knowledge base error"),
            KataraError::KbIngest(_) => write!(f, "knowledge base ingestion failed"),
            KataraError::TableIngest(_) => write!(f, "table ingestion failed"),
            KataraError::BadDelta { edit, detail } => {
                write!(f, "bad table delta at edit {edit}: {detail}")
            }
            KataraError::DeadlineExceeded { phase } => {
                write!(f, "deadline exceeded before the {phase} phase")
            }
            KataraError::ForeignSnapshot { detail } => {
                write!(f, "snapshot was built for another table: {detail}")
            }
        }
    }
}

impl std::error::Error for KataraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KataraError::Crowd(e) => Some(e),
            KataraError::Kb(e) => Some(e),
            KataraError::KbIngest(e) => Some(e),
            KataraError::TableIngest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CrowdError> for KataraError {
    fn from(e: CrowdError) -> Self {
        KataraError::Crowd(e)
    }
}

impl From<KbError> for KataraError {
    fn from(e: KbError) -> Self {
        KataraError::Kb(e)
    }
}

impl From<NtError> for KataraError {
    fn from(e: NtError) -> Self {
        KataraError::KbIngest(e)
    }
}

impl From<CsvError> for KataraError {
    fn from(e: CsvError) -> Self {
        KataraError::TableIngest(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display() {
        let e = KataraError::NoPatternFound {
            table: "soccer".into(),
            kb: "yago".into(),
        };
        assert!(e.to_string().contains("soccer"));
        let e = KataraError::ColumnOutOfRange {
            column: 9,
            num_columns: 3,
        };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn ingest_errors_chain_through_source() {
        let e = KataraError::from(KbError::Conflict("dup".into()));
        assert!(e.source().expect("kb source").to_string().contains("dup"));
        let e = KataraError::from(NtError::Syntax {
            line: 7,
            byte_offset: 120,
            message: "unterminated IRI".into(),
        });
        assert!(e
            .source()
            .expect("nt source")
            .to_string()
            .contains("line 7"));
        let e = KataraError::from(CsvError::Empty);
        assert!(e
            .source()
            .expect("csv source")
            .to_string()
            .contains("empty"));
    }

    #[test]
    fn crowd_errors_chain_through_source() {
        let e = KataraError::from(CrowdError::NoWorkers);
        let src = e.source().expect("wrapped error is the source");
        assert!(src.to_string().contains("worker"));
        // Non-wrapping variants have no source.
        assert!(KataraError::MalformedPattern("x".into()).source().is_none());
    }
}
