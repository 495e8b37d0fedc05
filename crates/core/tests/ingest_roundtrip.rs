//! Strict ingestion is the identity on clean, generator-produced data.
//!
//! The datagen crate produces the corpora every experiment runs on; if
//! the hardened loaders treated any of it differently from the reference
//! parsers, every downstream accuracy number would silently shift. So:
//! for both KB flavors, serialize → strict and lenient `parse_with_policy`
//! must equal the reference N-Triples loader (`nt_oracle`, shared with
//! `katara-kb`'s tests) byte-for-byte, report for report; for all five
//! table families, strict must equal the legacy `csv::parse`. Every report
//! must come back clean.
//!
//! The case count of the seed-sweep property is elevated in CI via
//! `KATARA_FUZZ_CASES`.

#[path = "../../kb/tests/nt_oracle/mod.rs"]
mod nt_oracle;

use std::sync::OnceLock;

use katara_datagen::{
    build_kb, person_table, soccer_table, university_table, web_tables, wiki_tables, KbFlavor,
    KbGenConfig, World, WorldConfig,
};
use katara_kb::ntriples;
use katara_table::csv;
use proptest::prelude::*;

/// Per-test case count: `KATARA_FUZZ_CASES` (CI runs an elevated count)
/// or the given local default.
fn fuzz_cases(default: u32) -> u32 {
    std::env::var("KATARA_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One small world, shared across tests (generation dominates runtime).
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::tiny()))
}

/// Assert that both KB load policies agree with the reference loader on
/// `text`, KB bytes and report, and report clean loads.
fn assert_kb_round_trip(text: &str) {
    for policy in [
        katara_kb::IngestPolicy::strict(),
        katara_kb::IngestPolicy::lenient(),
    ] {
        let (kb, report) =
            ntriples::parse_with_policy("rt", text, &policy).expect("clean dump parses");
        let (oracle_kb, oracle_report) =
            nt_oracle::parse_with_policy("rt", text, &policy).expect("reference parses it");
        assert_eq!(ntriples::to_string(&kb), ntriples::to_string(&oracle_kb));
        assert_eq!(report, oracle_report);
        assert!(!report.is_degraded(), "clean dump degraded: {report:?}");
        assert_eq!(report.quarantined_count, 0);
        assert_eq!(report.accepted, report.total_statements);
        assert!(report.audit.broken_edges.is_empty());
    }
}

/// Assert the three table load paths agree on `text` and report clean loads.
fn assert_table_round_trip(text: &str) {
    let legacy = csv::parse("rt", text).expect("clean dump parses");
    let (strict, strict_report) =
        csv::parse_with_policy("rt", text, &katara_table::IngestPolicy::strict())
            .expect("strict accepts clean dump");
    let (lenient, lenient_report) =
        csv::parse_with_policy("rt", text, &katara_table::IngestPolicy::lenient())
            .expect("lenient accepts clean dump");

    assert_eq!(csv::to_string(&legacy), csv::to_string(&strict));
    assert_eq!(csv::to_string(&legacy), csv::to_string(&lenient));
    for report in [&strict_report, &lenient_report] {
        assert!(!report.is_degraded(), "clean dump degraded: {report:?}");
        assert_eq!(report.quarantined_count, 0);
        assert_eq!(report.accepted, report.total_records);
    }
}

#[test]
fn datagen_kbs_round_trip_cleanly_both_flavors() {
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let kb = build_kb(world(), &KbGenConfig::for_flavor(flavor));
        assert_kb_round_trip(&ntriples::to_string(&kb));
    }
}

#[test]
fn datagen_tables_round_trip_cleanly_all_families() {
    let w = world();
    let mut tables = vec![
        person_table(w, 60, 11),
        soccer_table(w, 40, 12),
        university_table(w, 30, 13),
    ];
    tables.extend(wiki_tables(w, 3, 14));
    tables.extend(web_tables(w, 3, 15));
    for g in &tables {
        assert_table_round_trip(&csv::to_string(&g.table));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(16)))]

    /// The identity holds for any sampling seed and table size, not just
    /// the fixed corpora above.
    #[test]
    fn table_round_trip_holds_for_any_seed(
        n in 1usize..60,
        seed in 0u64..1 << 32,
        family in 0usize..3,
    ) {
        let w = world();
        let g = match family {
            0 => person_table(w, n, seed),
            1 => soccer_table(w, n, seed),
            _ => university_table(w, n, seed),
        };
        assert_table_round_trip(&csv::to_string(&g.table));
    }
}
