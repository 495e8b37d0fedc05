//! The pattern scoring model (§4.2).
//!
//! ```text
//! score(φ) = Σ_i  tf-idf(T_i, A_i)
//!          + Σ_ij tf-idf(P_ij, A_i, A_j)
//!          + Σ_ij ( subSC(T_i, P_ij) + objSC(T_j, P_ij) )
//! ```
//!
//! The naive model (coherence weight 0) drops the coherence terms; the paper's
//! Example 5 shows why that misranks `economy`/`city` over
//! `country`/`capital`. (The paper's Example 7 writes a `5 ×` factor in
//! front of the coherence sum, but its own arithmetic — 1.0 + 0.9 + 0.9 +
//! 0.86 + 0.83 = 4.49 — uses plain addition; we default to weight 1.0 and
//! expose it as a knob.)

use katara_kb::Kb;

use crate::candidates::CandidateSet;
use crate::pattern::TablePattern;

/// Scoring knobs.
#[derive(Debug, Clone)]
pub struct ScoringConfig {
    /// Multiplier on the coherence terms (paper: 1.0 effective).
    pub coherence_weight: f64,
}

impl Default for ScoringConfig {
    fn default() -> Self {
        ScoringConfig {
            coherence_weight: 1.0,
        }
    }
}

/// Score a pattern under the full model. Types/relationships that do not
/// appear in the candidate lists contribute zero tf-idf (they would never
/// be produced by discovery, but baseline conversions can hit this).
pub fn score_pattern(
    kb: &Kb,
    cands: &CandidateSet,
    pattern: &TablePattern,
    config: &ScoringConfig,
) -> f64 {
    let mut s = 0.0;
    for node in pattern.nodes() {
        if let Some(class) = node.class {
            s += cands
                .col_types
                .get(node.column)
                .and_then(|list| list.iter().find(|c| c.class == class))
                .map(|c| c.tfidf)
                .unwrap_or(0.0);
        }
    }
    for edge in pattern.edges() {
        s += cands
            .rels(edge.subject, edge.object)
            .iter()
            .find(|c| c.property == edge.property)
            .map(|c| c.tfidf)
            .unwrap_or(0.0);
        let sub_t = pattern.node_for_column(edge.subject).and_then(|n| n.class);
        let obj_t = pattern.node_for_column(edge.object).and_then(|n| n.class);
        let mut coh = 0.0;
        if let Some(t) = sub_t {
            coh += kb.sub_coherence(t, edge.property);
        }
        if let Some(t) = obj_t {
            coh += kb.obj_coherence(t, edge.property);
        }
        s += config.coherence_weight * coh;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{discover_candidates, CandidateConfig};
    use crate::pattern::{PatternEdge, PatternNode, TablePattern};
    use katara_kb::KbBuilder;
    use katara_table::Table;

    /// Example 5's shape: `economy` is a supertype holding both countries
    /// and other things; only countries head capitals.
    fn example5() -> (Kb, Table) {
        let mut b = KbBuilder::new();
        let economy = b.class("economy");
        let country = b.class("country");
        let city = b.class("city");
        let capital = b.class("capital");
        b.subclass(country, economy).unwrap();
        b.subclass(capital, city).unwrap();
        let has_capital = b.property("hasCapital");

        for (c, cap) in [("Italy", "Rome"), ("Spain", "Madrid"), ("France", "Paris")] {
            let rc = b.entity(c, &[country]);
            let rcap = b.entity(cap, &[capital]);
            b.fact(rc, has_capital, rcap);
        }
        for i in 0..10 {
            b.entity(&format!("Corp{i}"), &[economy]);
            b.entity(&format!("Town{i}"), &[city]);
        }
        let kb = b.finalize();

        let mut t = Table::with_opaque_columns("t", 2);
        t.push_text_row(&["Italy", "Rome"]);
        t.push_text_row(&["Spain", "Madrid"]);
        (kb, t)
    }

    use katara_kb::Kb;

    fn pattern_with(kb: &Kb, sub_type: &str, obj_type: &str) -> TablePattern {
        TablePattern::new(
            vec![
                PatternNode {
                    column: 0,
                    class: Some(kb.class_by_name(sub_type).unwrap()),
                },
                PatternNode {
                    column: 1,
                    class: Some(kb.class_by_name(obj_type).unwrap()),
                },
            ],
            vec![PatternEdge {
                subject: 0,
                object: 1,
                property: kb.property_by_name("hasCapital").unwrap(),
            }],
            0.0,
        )
        .unwrap()
    }

    #[test]
    fn coherence_prefers_country_capital() {
        let (kb, t) = example5();
        let cands = discover_candidates(&t, &kb, &CandidateConfig::default());
        let cfg = ScoringConfig::default();
        let good = score_pattern(&kb, &cands, &pattern_with(&kb, "country", "capital"), &cfg);
        let bad = score_pattern(&kb, &cands, &pattern_with(&kb, "economy", "city"), &cfg);
        assert!(
            good > bad,
            "country/capital ({good}) must beat economy/city ({bad})"
        );
    }

    #[test]
    fn coherence_weight_zero_equals_naive() {
        let (kb, t) = example5();
        let cands = discover_candidates(&t, &kb, &CandidateConfig::default());
        let p = pattern_with(&kb, "country", "capital");
        let cfg = ScoringConfig {
            coherence_weight: 0.0,
        };
        // The naive score is the tf-idf sum over the pattern's types and
        // relationships.
        let tfidf: f64 = p
            .nodes()
            .iter()
            .filter_map(|n| {
                let class = n.class?;
                cands.col_types[n.column].iter().find(|c| c.class == class)
            })
            .map(|c| c.tfidf)
            .chain(p.edges().iter().filter_map(|e| {
                let rels = cands.rels(e.subject, e.object);
                rels.iter()
                    .find(|c| c.property == e.property)
                    .map(|c| c.tfidf)
            }))
            .sum();
        assert!(tfidf > 0.0);
        assert!((score_pattern(&kb, &cands, &p, &cfg) - tfidf).abs() < 1e-12);
    }

    #[test]
    fn unknown_candidates_contribute_zero_tfidf() {
        let (kb, t) = example5();
        let cands = discover_candidates(&t, &kb, &CandidateConfig::default());
        // A pattern typed with a class no cell carries.
        let mut b2 = KbBuilder::new();
        b2.class("ghost");
        let p = TablePattern::new(
            vec![PatternNode {
                column: 0,
                class: Some(katara_kb::ClassId(3)), // capital: wrong for col 0
            }],
            vec![],
            0.0,
        )
        .unwrap();
        let s = score_pattern(&kb, &cands, &p, &ScoringConfig::default());
        assert_eq!(s, 0.0);
    }

    #[test]
    fn score_is_monotone_in_parts() {
        let (kb, t) = example5();
        let cands = discover_candidates(&t, &kb, &CandidateConfig::default());
        let full = pattern_with(&kb, "country", "capital");
        let nodes_only = TablePattern::new(full.nodes().to_vec(), vec![], 0.0).unwrap();
        let cfg = ScoringConfig::default();
        assert!(
            score_pattern(&kb, &cands, &full, &cfg) > score_pattern(&kb, &cands, &nodes_only, &cfg)
        );
    }
}
