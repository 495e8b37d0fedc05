//! Pattern validation via crowdsourcing (§5, Algorithm 3).
//!
//! Given the top-k candidate patterns, validation selects the one the
//! crowd agrees with, variable by variable. A *variable* is a column (its
//! type) or an ordered column pair (its relationship). Each pattern's
//! discovery score is normalized into a probability; the scheduler
//! repeatedly validates the variable with the maximum entropy — which by
//! Theorem 1 equals the maximum expected reduction in pattern uncertainty
//! (MUVF, *most-uncertain-variable-first*) — prunes the disagreeing
//! patterns, and renormalizes, until one pattern remains. The AVI baseline
//! (*all-variables-independent*) validates every variable regardless.
//!
//! Each variable is validated with `q` multiple-choice questions, each
//! exposing `k_t` randomly sampled tuples (Q1/Q2 of §5.1); the plurality
//! answer across the `q` questions wins (and each individual question is
//! already replicated inside the crowd platform).
//!
//! Validation does not consume the shared
//! [`TableResolution`](crate::resolve::TableResolution) snapshot: its
//! questions are phrased from KB class/property *names* and raw table
//! cells — it never resolves cells against the KB, so there is nothing
//! for the snapshot to cache here.

use std::collections::HashMap;

use katara_crowd::{Answer, AskOutcome, Crowd, Oracle, Question};
use katara_kb::Kb;
use katara_table::Table;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::pattern::TablePattern;

/// Which scheduling policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingStrategy {
    /// Most-uncertain-variable-first (Algorithm 3) — the paper's method.
    Muvf,
    /// All-variables-independent — the paper's baseline.
    Avi,
}

/// Validation knobs.
#[derive(Debug, Clone)]
pub struct ValidationConfig {
    /// Questions per variable, `q` (Figure 7 sweeps 1..7; 5 suffices).
    pub questions_per_variable: usize,
    /// Tuples shown per question, `k_t` (paper: 5).
    pub tuples_per_question: usize,
    /// Seed for tuple sampling.
    pub seed: u64,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            questions_per_variable: 5,
            tuples_per_question: 5,
            seed: 0,
        }
    }
}

/// The result of a validation run.
#[derive(Debug, Clone)]
pub struct ValidationOutcome {
    /// The single surviving pattern.
    pub pattern: TablePattern,
    /// Number of variables actually validated (Table 4's metric).
    /// Variables attempted but lost to no-quorum are not counted.
    pub variables_validated: usize,
    /// Total crowd questions issued by this run.
    pub questions_asked: usize,
    /// False when the crowd budget ran out mid-schedule and the returned
    /// pattern is merely the best seen so far (highest score among the
    /// survivors at the point validation stopped).
    pub fully_validated: bool,
    /// Variables the crowd was asked about but never reached a quorum
    /// on. These are skipped — the pattern set is left unchanged and the
    /// final choice falls back to discovery-score order for them.
    pub no_quorum_variables: usize,
}

/// A validation variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum VarKey {
    Col(usize),
    Pair(usize, usize),
}

/// The value a pattern assigns to a variable. `None` = the pattern does
/// not cover the variable (possible when mixing patterns from different
/// discovery runs).
type VarValue = Option<u32>;

fn pattern_value(p: &TablePattern, v: VarKey) -> VarValue {
    match v {
        VarKey::Col(c) => p.node_for_column(c).and_then(|n| n.class).map(|c| c.0),
        VarKey::Pair(i, j) => p
            .edges()
            .iter()
            .find(|e| e.subject == i && e.object == j)
            .map(|e| e.property.0),
    }
}

/// Collect the variables appearing in any pattern, in deterministic order.
fn collect_vars(patterns: &[TablePattern]) -> Vec<VarKey> {
    let mut vars: Vec<VarKey> = Vec::new();
    let mut push = |v: VarKey| {
        if !vars.contains(&v) {
            vars.push(v);
        }
    };
    for p in patterns {
        for n in p.nodes() {
            if n.class.is_some() {
                push(VarKey::Col(n.column));
            }
        }
        for e in p.edges() {
            push(VarKey::Pair(e.subject, e.object));
        }
    }
    vars.sort_by_key(|v| match *v {
        VarKey::Col(c) => (0, c, 0),
        VarKey::Pair(i, j) => (1, i, j),
    });
    vars
}

/// Normalize scores into probabilities (uniform if all scores are zero).
fn probabilities(patterns: &[TablePattern]) -> Vec<f64> {
    let total: f64 = patterns.iter().map(|p| p.score().max(0.0)).sum();
    if total <= 0.0 {
        return vec![1.0 / patterns.len() as f64; patterns.len()];
    }
    patterns
        .iter()
        .map(|p| p.score().max(0.0) / total)
        .collect()
}

/// Entropy of a variable under the current pattern distribution:
/// `H(v) = -Σ_a Pr(v=a) log2 Pr(v=a)` (Theorem 1 equates this with the
/// expected uncertainty reduction of validating `v`).
fn variable_entropy(patterns: &[TablePattern], probs: &[f64], v: VarKey) -> f64 {
    let mut mass: HashMap<VarValue, f64> = HashMap::new();
    for (p, &pr) in patterns.iter().zip(probs) {
        *mass.entry(pattern_value(p, v)).or_insert(0.0) += pr;
    }
    -mass
        .values()
        .filter(|&&m| m > 0.0)
        .map(|&m| m * m.log2())
        .sum::<f64>()
}

/// Validate the given patterns and return the survivor.
///
/// `patterns` must be non-empty; single-element input returns immediately
/// with zero questions. The crowd's deadline ([`Crowd::deadline`]) is
/// checked at the top of the scheduler loop: on expiry validation stops
/// like a budget death, returning the best pattern so far flagged as
/// partially validated.
pub fn validate_patterns<O: Oracle>(
    table: &Table,
    kb: &Kb,
    mut patterns: Vec<TablePattern>,
    crowd: &mut Crowd<O>,
    config: &ValidationConfig,
    strategy: SchedulingStrategy,
) -> ValidationOutcome {
    assert!(
        !patterns.is_empty(),
        "validation needs at least one pattern"
    );
    let vars = collect_vars(&patterns);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut validated: Vec<VarKey> = Vec::new();
    let mut questions_asked = 0usize;
    let mut fully_validated = true;
    let mut no_quorum_variables = 0usize;

    let var_order: Vec<VarKey> = vars.clone();
    loop {
        // MUVF stops as soon as one pattern remains; AVI, validating each
        // variable independently, cannot exploit that and goes through the
        // whole variable list (this is exactly the Table 4 contrast).
        let done = match strategy {
            SchedulingStrategy::Muvf => patterns.len() <= 1,
            SchedulingStrategy::Avi => validated.len() == var_order.len(),
        };
        if done {
            break;
        }
        if crowd.is_budget_exhausted() || crowd.deadline().expired() {
            // Degrade gracefully: stop scheduling and return the best
            // pattern seen so far, flagged as partially validated.
            fully_validated = false;
            break;
        }
        let probs = probabilities(&patterns);
        let next = match strategy {
            SchedulingStrategy::Muvf => {
                // Most uncertain first; skip already-validated and
                // zero-entropy variables.
                let best = vars
                    .iter()
                    .filter(|v| !validated.contains(v))
                    .map(|&v| (v, variable_entropy(&patterns, &probs, v)))
                    .max_by(|a, b| {
                        a.1.total_cmp(&b.1)
                            .then_with(|| var_rank(b.0).cmp(&var_rank(a.0)))
                    });
                match best {
                    Some((v, h)) if h > 0.0 => v,
                    // All remaining variables are certain: patterns are
                    // value-identical; keep the highest-scoring one.
                    _ => break,
                }
            }
            SchedulingStrategy::Avi => var_order[validated.len()],
        };

        let (verdict, q_count) = ask_variable(table, kb, &patterns, next, crowd, config, &mut rng);
        questions_asked += q_count;
        if verdict == VarVerdict::BudgetExhausted || verdict == VarVerdict::DeadlineExpired {
            // Not even one aggregated answer came back before the money
            // (or the clock) ran out; the variable stays unvalidated.
            fully_validated = false;
            break;
        }
        validated.push(next);

        match verdict {
            VarVerdict::Value(a) => {
                let filtered: Vec<TablePattern> = patterns
                    .iter()
                    .filter(|p| pattern_value(p, next) == Some(a))
                    .cloned()
                    .collect();
                if !filtered.is_empty() {
                    patterns = filtered;
                }
                // An empty filter (crowd picked a value no pattern holds,
                // possible only through worker error) keeps the set
                // unchanged — the variable still counts as validated.
            }
            VarVerdict::NoneOfTheAbove => {
                // The crowd rejected every candidate: the column has no
                // accurate type / the pair no accurate relationship among
                // the discovered options. Strip the variable from every
                // pattern so annotation never enforces it.
                for p in &mut patterns {
                    strip_variable(p, next);
                }
            }
            VarVerdict::NoQuorum => {
                // The crowd never settled on this variable. Skip it (it
                // stays in `validated` so the scheduler moves on) and
                // leave the pattern set unchanged: the final selection
                // falls back to discovery-score order for it.
                no_quorum_variables += 1;
            }
            VarVerdict::Unasked => {}
            VarVerdict::BudgetExhausted | VarVerdict::DeadlineExpired => {
                unreachable!("handled above")
            }
        }
    }

    // Keep the highest-scoring survivor.
    patterns.sort_by(|a, b| b.score().total_cmp(&a.score()));
    ValidationOutcome {
        // invariant: `patterns` starts non-empty (caller contract) and
        // every filter above falls back to the unfiltered set when it
        // would empty it.
        pattern: patterns.into_iter().next().expect("non-empty"),
        variables_validated: validated.len() - no_quorum_variables,
        questions_asked,
        fully_validated,
        no_quorum_variables,
    }
}

fn var_rank(v: VarKey) -> (usize, usize, usize) {
    match v {
        VarKey::Col(c) => (0, c, 0),
        VarKey::Pair(i, j) => (1, i, j),
    }
}

/// Outcome of validating one variable with the crowd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarVerdict {
    /// The crowd settled on this value.
    Value(u32),
    /// The crowd rejected every candidate.
    NoneOfTheAbove,
    /// Nothing to ask (at most one candidate value).
    Unasked,
    /// Every question for this variable failed to reach a quorum.
    NoQuorum,
    /// The budget ran out before a single aggregated answer came back.
    BudgetExhausted,
    /// The deadline expired before a single aggregated answer came back.
    DeadlineExpired,
}

/// Remove a variable from a pattern after a "none of the above" verdict:
/// a column variable loses its type (the node stays untyped if edges
/// still need it, and disappears otherwise); a pair variable loses its
/// edge (plus any endpoint node left untyped and edge-less).
fn strip_variable(p: &mut TablePattern, var: VarKey) {
    let mut nodes = p.nodes().to_vec();
    let mut edges = p.edges().to_vec();
    match var {
        VarKey::Col(c) => {
            for n in &mut nodes {
                if n.column == c {
                    n.class = None;
                }
            }
        }
        VarKey::Pair(i, j) => {
            edges.retain(|e| !(e.subject == i && e.object == j));
        }
    }
    nodes.retain(|n| {
        n.class.is_some()
            || edges
                .iter()
                .any(|e| e.subject == n.column || e.object == n.column)
    });
    edges.retain(|e| {
        nodes.iter().any(|n| n.column == e.subject) && nodes.iter().any(|n| n.column == e.object)
    });
    let score = p.score();
    if let Ok(stripped) = TablePattern::new(nodes, edges, score) {
        *p = stripped;
    }
}

/// Ask the crowd about one variable: `q` questions, each with fresh
/// sample tuples; plurality of the aggregated answers wins. Returns the
/// verdict and the number of questions issued.
fn ask_variable<O: Oracle>(
    table: &Table,
    kb: &Kb,
    patterns: &[TablePattern],
    var: VarKey,
    crowd: &mut Crowd<O>,
    config: &ValidationConfig,
    rng: &mut StdRng,
) -> (VarVerdict, usize) {
    // Candidate values among the remaining patterns, deterministic order.
    let mut values: Vec<u32> = Vec::new();
    for p in patterns {
        if let Some(v) = pattern_value(p, var) {
            if !values.contains(&v) {
                values.push(v);
            }
        }
    }
    if values.is_empty() {
        return (VarVerdict::Unasked, 0);
    }
    // Note: a single-candidate variable is still asked (candidate +
    // "none of the above") — this only happens under AVI, which validates
    // independently; MUVF never selects a zero-entropy variable, which is
    // exactly the saving Table 4 measures.
    let candidates: Vec<String> = values
        .iter()
        .map(|&v| match var {
            VarKey::Col(_) => kb.class_name(katara_kb::ClassId(v)).to_string(),
            VarKey::Pair(i, j) => format!(
                "{} {} {}",
                column_name(table, i),
                kb.property_name(katara_kb::PropertyId(v)),
                column_name(table, j)
            ),
        })
        .collect();

    let mut votes: HashMap<Answer, usize> = HashMap::new();
    let q = config.questions_per_variable.max(1);
    let mut issued = 0usize;
    let mut budget_hit = false;
    let mut deadline_hit = false;
    for _ in 0..q {
        let sample_rows = sample_rows(table, config.tuples_per_question, rng);
        let question = match var {
            VarKey::Col(c) => Question::ColumnType {
                table: table.name().to_string(),
                column: c,
                header: table.columns().to_vec(),
                sample_rows,
                candidates: candidates.clone(),
            },
            VarKey::Pair(i, j) => Question::Relationship {
                table: table.name().to_string(),
                columns: (i, j),
                header: table.columns().to_vec(),
                sample_rows,
                candidates: candidates.clone(),
            },
        };
        match crowd.ask(&question) {
            AskOutcome::Answered(a) => {
                issued += 1;
                *votes.entry(a).or_insert(0) += 1;
            }
            // A no-quorum question already exhausted the crowd's retry
            // ladder; the remaining sample questions may still settle
            // the variable.
            AskOutcome::NoQuorum => issued += 1,
            AskOutcome::BudgetExhausted => {
                budget_hit = true;
                break;
            }
            AskOutcome::DeadlineExpired => {
                deadline_hit = true;
                break;
            }
        }
    }
    let Some((&winner, _)) = votes.iter().max_by(|a, b| {
        a.1.cmp(b.1)
            .then_with(|| b.0.slot(values.len()).cmp(&a.0.slot(values.len())))
    }) else {
        // Not one aggregated answer for this variable.
        let verdict = if deadline_hit {
            VarVerdict::DeadlineExpired
        } else if budget_hit {
            VarVerdict::BudgetExhausted
        } else {
            VarVerdict::NoQuorum
        };
        return (verdict, issued);
    };
    let verdict = match winner {
        Answer::Choice(i) => match values.get(i) {
            Some(&v) => VarVerdict::Value(v),
            None => VarVerdict::NoneOfTheAbove,
        },
        _ => VarVerdict::NoneOfTheAbove,
    };
    (verdict, issued)
}

fn column_name(table: &Table, c: usize) -> &str {
    table.columns().get(c).map(String::as_str).unwrap_or("?")
}

/// `k_t` sampled rows rendered as strings (with replacement across calls,
/// without within a call when possible).
fn sample_rows(table: &Table, k_t: usize, rng: &mut StdRng) -> Vec<Vec<String>> {
    let n = table.num_rows();
    if n == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..n).collect();
    // Partial Fisher–Yates for the first k_t slots.
    let take = k_t.min(n);
    for i in 0..take {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx[..take]
        .iter()
        .map(|&r| {
            table
                .row(r)
                .iter()
                .map(|v| v.text_or_empty().to_string())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PatternEdge, PatternNode};
    use katara_crowd::CrowdConfig;
    use katara_kb::{ClassId, KbBuilder, PropertyId};

    /// Build the KB + table + the *five patterns of Example 8*.
    fn example8() -> (Kb, Table, Vec<TablePattern>) {
        let mut b = KbBuilder::new();
        let country = b.class("country");
        let economy = b.class("economy");
        let state = b.class("state");
        let capital = b.class("capital");
        let city = b.class("city");
        let has_capital = b.property("hasCapital");
        let located_in = b.property("locatedIn");
        let _ = (
            country,
            economy,
            state,
            capital,
            city,
            has_capital,
            located_in,
        );
        let kb = b.finalize();

        let mut t = Table::with_opaque_columns("t", 2);
        t.push_text_row(&["Italy", "Rome"]);
        t.push_text_row(&["Spain", "Madrid"]);
        t.push_text_row(&["France", "Paris"]);
        t.push_text_row(&["Egypt", "Cairo"]);
        t.push_text_row(&["Japan", "Tokyo"]);

        let mk = |tb: ClassId, tc: ClassId, p: PropertyId, score: f64| {
            TablePattern::new(
                vec![
                    PatternNode {
                        column: 0,
                        class: Some(tb),
                    },
                    PatternNode {
                        column: 1,
                        class: Some(tc),
                    },
                ],
                vec![PatternEdge {
                    subject: 0,
                    object: 1,
                    property: p,
                }],
                score,
            )
            .unwrap()
        };
        let patterns = vec![
            mk(country, capital, has_capital, 2.8), // φ1, prob .35
            mk(economy, capital, has_capital, 2.0), // φ2, prob .25
            mk(country, city, located_in, 2.0),     // φ3, prob .25
            mk(country, capital, located_in, 0.8),  // φ4, prob .10
            mk(state, capital, has_capital, 0.4),   // φ5, prob .05
        ];
        (kb, t, patterns)
    }

    /// Oracle matching Example 9's crowd: column B is a country, C is a
    /// capital, and the relationship is hasCapital.
    fn example_oracle() -> impl Oracle {
        |q: &Question| match q {
            Question::ColumnType {
                column, candidates, ..
            } => {
                let want = if *column == 0 { "country" } else { "capital" };
                match candidates.iter().position(|c| c == want) {
                    Some(i) => Answer::Choice(i),
                    None => Answer::NoneOfTheAbove,
                }
            }
            Question::Relationship { candidates, .. } => {
                match candidates.iter().position(|c| c.contains("hasCapital")) {
                    Some(i) => Answer::Choice(i),
                    None => Answer::NoneOfTheAbove,
                }
            }
            Question::Fact { .. } => Answer::Bool(true),
        }
    }

    fn perfect_crowd() -> Crowd<impl Oracle> {
        Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                ..CrowdConfig::default()
            },
            example_oracle(),
        )
        .unwrap()
    }

    #[test]
    fn example8_entropies() {
        let (_, _, patterns) = example8();
        let probs = probabilities(&patterns);
        let hb = variable_entropy(&patterns, &probs, VarKey::Col(0));
        let hc = variable_entropy(&patterns, &probs, VarKey::Col(1));
        let hbc = variable_entropy(&patterns, &probs, VarKey::Pair(0, 1));
        // Paper: H(vB)=1.07, H(vC)=0.81, H(vBC)=0.93.
        assert!((hb - 1.07).abs() < 0.02, "H(vB)={hb}");
        assert!((hc - 0.81).abs() < 0.02, "H(vC)={hc}");
        assert!((hbc - 0.93).abs() < 0.02, "H(vBC)={hbc}");
        assert!(hb > hbc && hbc > hc, "B first, then the pair");
    }

    #[test]
    fn muvf_follows_example9_and_skips_a_variable() {
        let (kb, t, patterns) = example8();
        let mut crowd = perfect_crowd();
        let out = validate_patterns(
            &t,
            &kb,
            patterns,
            &mut crowd,
            &ValidationConfig::default(),
            SchedulingStrategy::Muvf,
        );
        // Example 9: validate vB, then vBC — vC is never asked.
        assert_eq!(out.variables_validated, 2);
        let p = &out.pattern;
        assert_eq!(
            p.node_for_column(0).unwrap().class,
            kb.class_by_name("country")
        );
        assert_eq!(
            p.node_for_column(1).unwrap().class,
            kb.class_by_name("capital")
        );
        assert_eq!(
            p.edges()[0].property,
            kb.property_by_name("hasCapital").unwrap()
        );
    }

    #[test]
    fn avi_validates_every_variable() {
        let (kb, t, patterns) = example8();
        let mut crowd = perfect_crowd();
        let out = validate_patterns(
            &t,
            &kb,
            patterns,
            &mut crowd,
            &ValidationConfig::default(),
            SchedulingStrategy::Avi,
        );
        assert_eq!(out.variables_validated, 3, "AVI asks all of vB, vC, vBC");
        assert_eq!(
            out.pattern.edges()[0].property,
            kb.property_by_name("hasCapital").unwrap()
        );
    }

    #[test]
    fn muvf_never_validates_more_than_avi() {
        let (kb, t, patterns) = example8();
        let muvf = validate_patterns(
            &t,
            &kb,
            patterns.clone(),
            &mut perfect_crowd(),
            &ValidationConfig::default(),
            SchedulingStrategy::Muvf,
        );
        let avi = validate_patterns(
            &t,
            &kb,
            patterns,
            &mut perfect_crowd(),
            &ValidationConfig::default(),
            SchedulingStrategy::Avi,
        );
        assert!(muvf.variables_validated <= avi.variables_validated);
    }

    #[test]
    fn single_pattern_needs_no_questions() {
        let (kb, t, patterns) = example8();
        let single = vec![patterns[0].clone()];
        let mut crowd = perfect_crowd();
        let out = validate_patterns(
            &t,
            &kb,
            single,
            &mut crowd,
            &ValidationConfig::default(),
            SchedulingStrategy::Muvf,
        );
        assert_eq!(out.variables_validated, 0);
        assert_eq!(out.questions_asked, 0);
    }

    #[test]
    fn identical_value_patterns_terminate() {
        let (kb, t, patterns) = example8();
        // Two copies of φ1 with different scores: zero entropy everywhere.
        let mut p2 = patterns[0].clone();
        p2.set_score(1.0);
        let mut crowd = perfect_crowd();
        let out = validate_patterns(
            &t,
            &kb,
            vec![patterns[0].clone(), p2],
            &mut crowd,
            &ValidationConfig::default(),
            SchedulingStrategy::Muvf,
        );
        assert_eq!(out.questions_asked, 0);
        assert_eq!(out.pattern.score(), 2.8, "higher-scoring copy wins");
    }

    #[test]
    fn noisy_crowd_still_converges_with_enough_questions() {
        let (kb, t, patterns) = example8();
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 0.8,
                seed: 3,
                ..CrowdConfig::default()
            },
            example_oracle(),
        )
        .unwrap();
        let out = validate_patterns(
            &t,
            &kb,
            patterns,
            &mut crowd,
            &ValidationConfig {
                questions_per_variable: 7,
                ..ValidationConfig::default()
            },
            SchedulingStrategy::Muvf,
        );
        assert_eq!(
            out.pattern.node_for_column(0).unwrap().class,
            kb.class_by_name("country")
        );
    }

    #[test]
    fn none_of_the_above_strips_the_variable() {
        let (kb, t, patterns) = example8();
        // Oracle that rejects every relationship candidate but answers
        // types correctly: the pair variable must be stripped from the
        // surviving pattern.
        let oracle = |q: &Question| match q {
            Question::ColumnType {
                column, candidates, ..
            } => {
                let want = if *column == 0 { "country" } else { "capital" };
                match candidates.iter().position(|c| c == want) {
                    Some(i) => Answer::Choice(i),
                    None => Answer::NoneOfTheAbove,
                }
            }
            _ => Answer::NoneOfTheAbove,
        };
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                ..CrowdConfig::default()
            },
            oracle,
        )
        .unwrap();
        let out = validate_patterns(
            &t,
            &kb,
            patterns,
            &mut crowd,
            &ValidationConfig::default(),
            SchedulingStrategy::Avi, // AVI asks every variable
        );
        assert!(
            out.pattern.edges().is_empty(),
            "rejected relationship must be stripped: {:?}",
            out.pattern.edges()
        );
        // The typed nodes survive.
        assert_eq!(
            out.pattern.node_for_column(0).unwrap().class,
            kb.class_by_name("country")
        );
    }

    #[test]
    fn strip_variable_drops_orphan_untyped_nodes() {
        let (kb, _, patterns) = example8();
        let mut p = patterns[0].clone();
        // Stripping the only edge leaves two typed nodes.
        strip_variable(&mut p, VarKey::Pair(0, 1));
        assert!(p.edges().is_empty());
        assert_eq!(p.nodes().len(), 2);
        // Stripping a column type turns the node untyped; with no edges
        // left it disappears.
        strip_variable(&mut p, VarKey::Col(0));
        assert_eq!(p.nodes().len(), 1);
        assert_eq!(
            p.node_for_column(1).unwrap().class,
            kb.class_by_name("capital")
        );
    }

    #[test]
    fn reliable_crowd_marks_full_validation() {
        let (kb, t, patterns) = example8();
        let mut crowd = perfect_crowd();
        let out = validate_patterns(
            &t,
            &kb,
            patterns,
            &mut crowd,
            &ValidationConfig::default(),
            SchedulingStrategy::Muvf,
        );
        assert!(out.fully_validated);
        assert_eq!(out.no_quorum_variables, 0);
    }

    #[test]
    fn exhausted_budget_returns_best_pattern_so_far() {
        let (kb, t, patterns) = example8();
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                budget: katara_crowd::Budget::questions(0),
                ..CrowdConfig::default()
            },
            example_oracle(),
        )
        .unwrap();
        let out = validate_patterns(
            &t,
            &kb,
            patterns,
            &mut crowd,
            &ValidationConfig::default(),
            SchedulingStrategy::Muvf,
        );
        assert!(!out.fully_validated);
        assert_eq!(out.variables_validated, 0);
        // Fallback is pure score order: φ1 has the highest score.
        assert_eq!(out.pattern.score(), 2.8);
        assert!(crowd.is_budget_exhausted());
    }

    #[test]
    fn budget_exhaustion_mid_schedule_keeps_partial_progress() {
        let (kb, t, patterns) = example8();
        // Enough budget for the first variable (5 questions) but not the
        // second: the vB verdict is applied, then validation stops.
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                budget: katara_crowd::Budget::questions(5),
                ..CrowdConfig::default()
            },
            example_oracle(),
        )
        .unwrap();
        let out = validate_patterns(
            &t,
            &kb,
            patterns,
            &mut crowd,
            &ValidationConfig::default(),
            SchedulingStrategy::Muvf,
        );
        assert!(!out.fully_validated);
        assert_eq!(out.variables_validated, 1);
        // vB = country was applied, pruning φ2 (economy) and φ5 (state);
        // the best remaining is still φ1.
        assert_eq!(
            out.pattern.node_for_column(0).unwrap().class,
            kb.class_by_name("country")
        );
        assert_eq!(out.pattern.score(), 2.8);
    }

    #[test]
    fn total_no_quorum_falls_back_to_score_order() {
        let (kb, t, patterns) = example8();
        // Every worker drops out every time: no question ever resolves.
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                faults: katara_crowd::FaultPlan {
                    dropout_rate: 1.0,
                    ..katara_crowd::FaultPlan::default()
                },
                ..CrowdConfig::default()
            },
            example_oracle(),
        )
        .unwrap();
        let out = validate_patterns(
            &t,
            &kb,
            patterns,
            &mut crowd,
            &ValidationConfig::default(),
            SchedulingStrategy::Muvf,
        );
        // All three variables were attempted, none settled; the run is
        // complete (no budget issue) but validated nothing.
        assert!(out.fully_validated);
        assert_eq!(out.variables_validated, 0);
        assert_eq!(out.no_quorum_variables, 3);
        assert_eq!(out.pattern.score(), 2.8, "score-order fallback");
        assert!(crowd.stats().no_quorum_questions > 0);
    }

    #[test]
    fn questions_accounting() {
        let (kb, t, patterns) = example8();
        let mut crowd = perfect_crowd();
        let cfg = ValidationConfig {
            questions_per_variable: 3,
            ..ValidationConfig::default()
        };
        let out = validate_patterns(
            &t,
            &kb,
            patterns,
            &mut crowd,
            &cfg,
            SchedulingStrategy::Muvf,
        );
        assert_eq!(out.questions_asked, out.variables_validated * 3);
        assert_eq!(crowd.stats().questions(), out.questions_asked);
    }
}
