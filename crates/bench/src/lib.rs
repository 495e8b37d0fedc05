//! # katara-bench — shared fixtures for the Criterion benchmarks
//!
//! One bench target per evaluation artifact:
//!
//! * `discovery` — Tables 2–3, Figure 6 (candidate generation + the four
//!   discovery algorithms, top-k sweeps);
//! * `validation` — Table 4, Figure 7 (MUVF vs AVI, question sweeps);
//! * `annotation` — Table 5 (annotation throughput, enrichment);
//! * `repair` — Figure 8, Tables 6–7 (instance-graph index build, top-k
//!   repair generation, EQ/SCARE);
//! * `ablations` — the DESIGN.md design-choice benches (rank-join vs
//!   exhaustive, inverted lists vs full scan, coherence cache vs
//!   recompute, enrichment on/off);
//! * `resolve` — the shared KB query snapshot (DESIGN.md §5e): cold
//!   (snapshot built inside every cleaning run) vs snapshot-cached
//!   (pre-built [`katara_core::resolve::TableResolution`] injected),
//!   end to end on a large fixture.

use std::sync::Arc;

use katara_core::candidates::{discover_candidates, CandidateConfig, CandidateSet};
use katara_crowd::{Crowd, CrowdConfig};
use katara_datagen::{
    build_kb, person_table, GeneratedTable, KbFlavor, KbGenConfig, TableOracle, World, WorldConfig,
    WorldFacts,
};
use katara_eval::corpus::{Corpus, CorpusConfig};
use katara_kb::Kb;
use katara_table::corrupt::{corrupt_table, CorruptionConfig};

pub mod perf;

/// The benchmark corpus: small enough for Criterion's iteration counts,
/// large enough to exercise every code path.
pub fn bench_corpus() -> Corpus {
    Corpus::build(&CorpusConfig::small())
}

/// A (kb, table, candidates) fixture for one web table.
pub struct DiscoveryFixture {
    /// The KB.
    pub kb: Kb,
    /// The generated table.
    pub table: GeneratedTable,
    /// Precomputed candidate lists.
    pub cands: CandidateSet,
}

/// Build the standard discovery fixture (first web table, chosen flavor).
pub fn discovery_fixture(corpus: &Corpus, flavor: KbFlavor) -> DiscoveryFixture {
    let kb = corpus.kb(flavor);
    let table = corpus.web[0].clone();
    let cands = discover_candidates(&table.table, &kb, &CandidateConfig::default());
    DiscoveryFixture { kb, table, cands }
}

/// The large end-to-end fixture for the `resolve` bench: a
/// [`WorldConfig::yago_scale`] world compiled with
/// [`KbGenConfig::yago_scale`] into a KB of over a million triples and
/// 100K+ classes, and a Person table of [`resolve_rows`] rows with
/// typo-heavy paper-style corruption, so fuzzy cell→KB resolution
/// genuinely dominates a cold cleaning run. Quick mode shrinks both for
/// CI smoke.
pub struct ResolveFixture {
    /// The (immutable during the bench — enrichment is off) KB.
    pub kb: Kb,
    /// The corrupted Person table plus its ground truth.
    pub table: GeneratedTable,
    /// Oracle fact base for expert crowds.
    pub facts: Arc<WorldFacts>,
    /// KB flavor the fixture was built with.
    pub flavor: KbFlavor,
    /// Injected cell errors.
    pub errors: usize,
    /// Human-readable fixture description for the report.
    pub name: String,
}

/// Person rows in the resolve fixture: 4 000 full (against the
/// million-triple Yago-scale KB each fuzzy probe costs ~15× what it did
/// on the old ~20K-entity fixture, so this keeps one cold iteration in
/// single-digit seconds while resolution still dominates), 400 in quick
/// mode.
pub fn resolve_rows() -> usize {
    if perf::quick_mode() {
        400
    } else {
        4_000
    }
}

/// Build the resolve fixture.
pub fn resolve_fixture() -> ResolveFixture {
    let flavor = KbFlavor::YagoLike;
    let (world_config, kbgen_config) = if perf::quick_mode() {
        (WorldConfig::tiny(), KbGenConfig::for_flavor(flavor))
    } else {
        (WorldConfig::yago_scale(), KbGenConfig::yago_scale())
    };
    let rows = resolve_rows();
    let world = World::generate(world_config);
    let kb = build_kb(&world, &kbgen_config);
    let mut table = person_table(&world, rows, 0xBE7C);
    // Typo-dominated corruption: typos miss the exact label index and
    // force the expensive fuzzy lookup, which is exactly the per-distinct
    // -value cost the snapshot amortizes. A low tuple error rate keeps
    // the (shared) crowd/repair tail small relative to resolution.
    let log = corrupt_table(
        &mut table.table,
        &CorruptionConfig {
            tuple_error_rate: 0.05,
            columns: vec![0, 1, 2, 3],
            w_domain_swap: 0.3,
            w_typo: 0.7,
            w_null: 0.0,
        },
        0xBAD_5EED,
    );
    let facts = Arc::new(WorldFacts::build(&world));
    ResolveFixture {
        kb,
        table,
        facts,
        flavor,
        errors: log.len(),
        name: format!("person/{rows}rows/{}", flavor.name()),
    }
}

/// A fresh, deterministic expert crowd for the resolve fixture. Rebuilt
/// per iteration so cold and snapshot-cached runs answer identical
/// question sequences.
pub fn resolve_crowd(f: &ResolveFixture) -> Crowd<TableOracle> {
    let oracle = TableOracle::new(f.facts.clone(), f.table.ground_truth.clone(), f.flavor);
    Crowd::new(
        CrowdConfig {
            worker_accuracy: 1.0,
            seed: 0x5EED,
            ..CrowdConfig::default()
        },
        oracle,
    )
    .expect("resolve bench crowd config is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let corpus = bench_corpus();
        let f = discovery_fixture(&corpus, KbFlavor::DbpediaLike);
        assert!(f.table.table.num_rows() > 0);
        assert!(!f.cands.col_types.is_empty());
    }

    #[test]
    #[ignore = "builds the full Yago-scale KB (minutes); run on demand"]
    fn yago_scale_fixture_reaches_a_million_triples() {
        let world = World::generate(WorldConfig::yago_scale());
        let kb = build_kb(&world, &KbGenConfig::yago_scale());
        let triples = kb.num_facts() + kb.num_type_assertions() + kb.num_entities();
        assert!(triples >= 1_000_000, "only {triples} triples");
        assert!(
            kb.num_classes() > 100_000,
            "only {} classes",
            kb.num_classes()
        );
    }

    #[test]
    fn resolve_fixture_builds_in_quick_mode() {
        // The full fixture is bench-only; the unit test pins the quick
        // path (no env juggling — tiny worlds build in milliseconds, so
        // just check the full builder plumbing on whatever mode is set).
        let f = resolve_fixture();
        assert_eq!(f.table.table.num_rows(), resolve_rows());
        assert!(f.errors > 0, "corruption must inject errors");
        let mut crowd = resolve_crowd(&f);
        let q = katara_crowd::Question::Fact {
            subject: "nobody".into(),
            property: "nationality".into(),
            object: "nowhere".into(),
        };
        assert!(crowd.ask(&q).answer().is_some());
    }
}
