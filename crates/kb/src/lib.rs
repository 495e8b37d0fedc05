//! # katara-kb — in-memory RDF-style knowledge base
//!
//! This crate implements the knowledge-base substrate that KATARA
//! (SIGMOD 2015) runs against. The paper uses Yago and DBpedia loaded into
//! Apache Jena with Lucene (LARQ) string matching; Rust RDF tooling is
//! immature, and KATARA only exercises a small RDFS fragment, so this crate
//! provides a bespoke, fully indexed in-memory store supporting exactly that
//! fragment:
//!
//! * **resources** (entities), **literals**, and **properties** (binary
//!   predicates between a resource and a resource-or-literal);
//! * **classes** with a `subClassOf` hierarchy and transitive
//!   instance-checking (`type(x) = T` or `subclassOf(type(x), T)`);
//! * **properties** with a `subPropertyOf` hierarchy and transitive
//!   fact-checking (`P'(x, y)` with `P' = P` or `subpropertyOf(P', P)`);
//! * **`rdfs:label`** lookup, both exact (normalized) and approximate via an
//!   n-gram index with a Lucene-style similarity threshold (paper: 0.7);
//! * the three SPARQL query shapes of §4.1 (`Q_types`, `Q_rels^1`,
//!   `Q_rels^2`) as native methods;
//! * precomputed **PMI coherence statistics** (`subSC`/`objSC` of §4.2) for
//!   every (type, property) pair, plus per-property maxima used by the
//!   rank-join bound;
//! * runtime **enrichment** (§6.1): crowd-confirmed facts are inserted and
//!   immediately visible to subsequent queries.
//!
//! The fact indexes live in a **dictionary-encoded columnar triple
//! store** (sorted CSR arenas over interned `u32` ids, binary-searched;
//! copy-on-write overlays absorb enrichment). Clones of a [`Kb`] share
//! everything finalize built, so a clone costs the size of its overlays.
//! See DESIGN.md §5i.
//!
//! # Quick example
//!
//! ```
//! use katara_kb::KbBuilder;
//!
//! let mut b = KbBuilder::new();
//! let country = b.class("country");
//! let capital = b.class("capital");
//! let has_capital = b.property("hasCapital");
//! let italy = b.entity("Italy", &[country]);
//! let rome = b.entity("Rome", &[capital]);
//! b.fact(italy, has_capital, rome);
//! let kb = b.finalize();
//!
//! assert!(kb.holds(italy, has_capital, rome));
//! assert_eq!(kb.resources_by_label("italy"), &[italy]);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod coherence;
mod columnar;
mod dedup;
pub mod error;
pub mod ids;
pub mod ingest;
pub mod interner;
pub mod journal;
pub mod label_index;
pub mod ntriples;
pub mod ontology;
pub mod query;
pub mod sim;
pub mod store;

pub use builder::KbBuilder;
pub use coherence::CoherenceTable;
pub use error::KbError;
pub use ids::{ClassId, LiteralId, PropertyId, ResourceId};
pub use ingest::{
    BrokenEdge, IngestMode, IngestPolicy, IngestReport, KbAudit, LabelCollision, QuarantineKind,
    Quarantined,
};
pub use interner::Interner;
pub use journal::{
    DeltaOp, EnrichmentDelta, FaultCounters, FaultWriter, Journal, JournalConfig, JournalError,
    JournalFile, JournalStats, ReplayReport, WriteFaultPlan,
};
pub use label_index::{LabelIndex, LabelMatch, LabelSearchStats};
pub use ontology::Hierarchy;
pub use query::Object;
pub use store::Kb;

/// The string-similarity threshold the paper configures in Lucene ("We set
/// the threshold to 0.7 in Lucene to check whether two strings match").
pub const DEFAULT_SIM_THRESHOLD: f64 = 0.7;
