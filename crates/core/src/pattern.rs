//! Table patterns and their match semantics (§3.2).
//!
//! A table pattern is a labelled directed graph: nodes are (column, type)
//! pairs, edges are (subject column, object column, property) triples. A
//! tuple *matches* a pattern w.r.t. a KB iff there is one resource per
//! typed node such that every cell value ≈-matches its resource with the
//! right type (condition 2) and every edge's property (or a subproperty)
//! holds between the chosen resources (condition 3). A tuple *partially
//! matches* if at least one condition instance holds.
//!
//! Edges may point at an *untyped* node — that models relationships to
//! literal columns discovered by `Q_rels^2` (e.g. `Rossi hasHeight 1.78`),
//! where the object has no KB type.

use std::borrow::Cow;

use katara_kb::{ClassId, Kb, PropertyId, ResourceId};
use katara_table::Value;

use crate::error::KataraError;
use crate::resolve::TableResolution;

/// A pattern node: a column, optionally annotated with a KB type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternNode {
    /// The table column this node stands for.
    pub column: usize,
    /// The KB type of the column; `None` for literal (untyped) columns
    /// that only participate as edge objects.
    pub class: Option<ClassId>,
}

/// A pattern edge: a directed relationship between two columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternEdge {
    /// Subject column.
    pub subject: usize,
    /// Object column.
    pub object: usize,
    /// The relationship.
    pub property: PropertyId,
}

/// A table pattern φ with its discovery score.
#[derive(Debug, Clone, PartialEq)]
pub struct TablePattern {
    nodes: Vec<PatternNode>,
    edges: Vec<PatternEdge>,
    score: f64,
}

/// The outcome of matching one tuple against a pattern (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleMatch {
    /// All conditions hold with a consistent resource assignment
    /// (Fig. 2(b)): the tuple is validated by the KB.
    Full,
    /// At least one condition holds but not all (Fig. 2(c)/(d)): crowd
    /// input is needed.
    Partial,
    /// No condition holds at all — still resolved via the crowd, but the
    /// KB contributed nothing.
    None,
}

/// Per-element diagnostics for one tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchReport {
    /// For each pattern node: does *some* matching resource carry the
    /// node's type (condition 2)? Untyped nodes are vacuously `true`.
    pub node_ok: Vec<bool>,
    /// For each pattern edge: does the relationship hold for *some*
    /// resource pair (condition 3)?
    pub edge_ok: Vec<bool>,
    /// A consistent resource assignment per node if a full match exists
    /// (entries are `None` for untyped nodes and when no full match).
    pub assignment: Vec<Option<ResourceId>>,
    /// The classification.
    pub outcome: TupleMatch,
}

impl TablePattern {
    /// Build a pattern. Edge endpoints must reference node columns.
    pub fn new(
        nodes: Vec<PatternNode>,
        edges: Vec<PatternEdge>,
        score: f64,
    ) -> Result<Self, KataraError> {
        for e in &edges {
            if !nodes.iter().any(|n| n.column == e.subject) {
                return Err(KataraError::MalformedPattern(format!(
                    "edge subject column {} has no node",
                    e.subject
                )));
            }
            if !nodes.iter().any(|n| n.column == e.object) {
                return Err(KataraError::MalformedPattern(format!(
                    "edge object column {} has no node",
                    e.object
                )));
            }
        }
        let mut cols: Vec<usize> = nodes.iter().map(|n| n.column).collect();
        cols.sort_unstable();
        cols.dedup();
        if cols.len() != nodes.len() {
            return Err(KataraError::MalformedPattern(
                "duplicate node for a column".to_string(),
            ));
        }
        Ok(TablePattern {
            nodes,
            edges,
            score,
        })
    }

    /// The nodes.
    pub fn nodes(&self) -> &[PatternNode] {
        &self.nodes
    }

    /// The edges.
    pub fn edges(&self) -> &[PatternEdge] {
        &self.edges
    }

    /// The discovery score.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Overwrite the score (validation renormalizes probabilities).
    pub fn set_score(&mut self, s: f64) {
        self.score = s;
    }

    /// True when both patterns have the same nodes and edges, whatever
    /// their scores. Matching, annotation and repair read only the shape
    /// (§6.2: instance graphs depend on φ and the KB), so caches of their
    /// results are keyed on it; the score can move with any table edit.
    pub fn same_shape(&self, other: &TablePattern) -> bool {
        self.nodes == other.nodes && self.edges == other.edges
    }

    /// The node for a column, if the column is covered.
    pub fn node_for_column(&self, column: usize) -> Option<&PatternNode> {
        self.nodes.iter().find(|n| n.column == column)
    }

    /// Columns covered by typed nodes, ascending.
    pub fn typed_columns(&self) -> Vec<usize> {
        let mut c: Vec<usize> = self
            .nodes
            .iter()
            .filter(|n| n.class.is_some())
            .map(|n| n.column)
            .collect();
        c.sort_unstable();
        c
    }

    /// All covered columns (typed or edge-participating), ascending.
    pub fn covered_columns(&self) -> Vec<usize> {
        let mut c: Vec<usize> = self.nodes.iter().map(|n| n.column).collect();
        c.sort_unstable();
        c
    }

    /// The connected components of the pattern graph, each as a sorted
    /// list of node indexes (indexes into [`TablePattern::nodes`]).
    /// The paper treats disconnected sub-patterns independently; repair
    /// enumeration relies on this decomposition.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let col_to_node: std::collections::HashMap<usize, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, nd)| (nd.column, i))
            .collect();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for e in &self.edges {
            let a = col_to_node[&e.subject];
            let b = col_to_node[&e.object];
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        for g in &mut out {
            g.sort_unstable();
        }
        out.sort();
        out
    }

    /// Render the pattern with KB names, e.g.
    /// `A(person), B(country), C(capital); A -nationality-> B, B -hasCapital-> C`.
    pub fn describe(&self, kb: &Kb, columns: &[String]) -> String {
        let col_name = |c: usize| {
            columns
                .get(c)
                .map(String::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| match n.class {
                Some(c) => format!("{}({})", col_name(n.column), kb.class_name(c)),
                None => format!("{}(·)", col_name(n.column)),
            })
            .collect();
        let edges: Vec<String> = self
            .edges
            .iter()
            .map(|e| {
                format!(
                    "{} -{}-> {}",
                    col_name(e.subject),
                    kb.property_name(e.property),
                    col_name(e.object)
                )
            })
            .collect();
        if edges.is_empty() {
            nodes.join(", ")
        } else {
            format!("{}; {}", nodes.join(", "), edges.join(", "))
        }
    }

    /// Match one tuple against this pattern (§3.2 semantics).
    ///
    /// Per-element checks are existential per node/edge; the `Full`
    /// outcome additionally requires a *consistent* assignment of one
    /// resource per typed node, found by backtracking over the (small)
    /// per-cell candidate sets.
    pub fn match_tuple(&self, kb: &Kb, row: &[Value]) -> MatchReport {
        self.match_tuple_resolved(kb, row, None)
    }

    /// Snapshot-aware variant of [`match_tuple`](Self::match_tuple).
    ///
    /// When `resolution` is `Some((snapshot, row_idx))`, cell candidate
    /// lookups come from the shared [`TableResolution`] instead of fresh
    /// label-index probes; `row` must then be row `row_idx` of the table
    /// the snapshot was built from. `None` queries the KB live.
    pub fn match_tuple_resolved(
        &self,
        kb: &Kb,
        row: &[Value],
        resolution: Option<(&TableResolution, usize)>,
    ) -> MatchReport {
        // Candidate resources for one cell, snapshot-backed when available.
        let cell_candidates = |col: usize, cell: &str| -> Cow<'_, [(ResourceId, f64)]> {
            match resolution {
                Some((res, r)) => Cow::Borrowed(res.candidates(kb, col, r).unwrap_or_default()),
                None => Cow::Owned(kb.candidate_resources(cell)),
            }
        };
        // Candidate resources per node (typed nodes only).
        let mut cand: Vec<Vec<ResourceId>> = Vec::with_capacity(self.nodes.len());
        let mut node_ok = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            match (node.class, row.get(node.column).and_then(Value::as_str)) {
                (Some(class), Some(cell)) => {
                    // Same filter as `Kb::typed_candidates`: candidate
                    // resources restricted to instances of `class`.
                    let typed: Vec<ResourceId> = cell_candidates(node.column, cell)
                        .iter()
                        .filter(|&&(r, _)| kb.has_type(r, class))
                        .map(|&(r, _)| r)
                        .collect();
                    node_ok.push(!typed.is_empty());
                    cand.push(typed);
                }
                (Some(_), None) => {
                    // Null cell: condition 2 cannot hold.
                    node_ok.push(false);
                    cand.push(Vec::new());
                }
                (None, _) => {
                    // Untyped literal node: vacuous.
                    node_ok.push(true);
                    cand.push(Vec::new());
                }
            }
        }

        let node_index: std::collections::HashMap<usize, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.column, i))
            .collect();

        // Existential per-edge checks.
        let mut edge_ok = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            let si = node_index[&e.subject];
            let oi = node_index[&e.object];
            let obj_typed = self.nodes[oi].class.is_some();
            let ok = if obj_typed {
                cand[si]
                    .iter()
                    .any(|&s| cand[oi].iter().any(|&o| kb.holds(s, e.property, o)))
            } else {
                match row.get(e.object).and_then(Value::as_str) {
                    Some(lit) => {
                        // Subject candidates may be untyped too (rare);
                        // resolve from the cell if needed.
                        let subjects: Vec<ResourceId> = if self.nodes[si].class.is_some() {
                            cand[si].clone()
                        } else {
                            row.get(e.subject)
                                .and_then(Value::as_str)
                                .map(|cell| {
                                    cell_candidates(e.subject, cell)
                                        .iter()
                                        .map(|&(r, _)| r)
                                        .collect()
                                })
                                .unwrap_or_default()
                        };
                        subjects
                            .iter()
                            .any(|&s| kb.holds_literal(s, e.property, lit))
                    }
                    None => false,
                }
            };
            edge_ok.push(ok);
        }

        let all_nodes = node_ok.iter().all(|&b| b);
        let all_edges = edge_ok.iter().all(|&b| b);
        let any = node_ok.iter().chain(edge_ok.iter()).any(|&b| b);

        let mut assignment = vec![None; self.nodes.len()];
        let outcome = if all_nodes && all_edges {
            // Seek a consistent assignment; existential checks can pass
            // with inconsistent resources, so verify.
            if self.find_assignment(kb, row, &cand, &node_index, &mut assignment, 0) {
                TupleMatch::Full
            } else {
                assignment.fill(None);
                TupleMatch::Partial
            }
        } else if any {
            TupleMatch::Partial
        } else if self.nodes.iter().all(|n| n.class.is_none()) && self.edges.is_empty() {
            // Degenerate empty pattern: vacuously full.
            TupleMatch::Full
        } else {
            TupleMatch::None
        };

        MatchReport {
            node_ok,
            edge_ok,
            assignment,
            outcome,
        }
    }

    /// Backtracking search for a consistent resource assignment.
    fn find_assignment(
        &self,
        kb: &Kb,
        row: &[Value],
        cand: &[Vec<ResourceId>],
        node_index: &std::collections::HashMap<usize, usize>,
        assignment: &mut [Option<ResourceId>],
        node: usize,
    ) -> bool {
        if node == self.nodes.len() {
            return true;
        }
        if self.nodes[node].class.is_none() {
            // Untyped node: no resource to pick; literal edges were checked
            // existentially and get re-verified against the subject below.
            return self.find_assignment(kb, row, cand, node_index, assignment, node + 1);
        }
        for &r in &cand[node] {
            assignment[node] = Some(r);
            if self.edges_consistent(kb, row, node_index, assignment)
                && self.find_assignment(kb, row, cand, node_index, assignment, node + 1)
            {
                return true;
            }
        }
        assignment[node] = None;
        false
    }

    /// Check every edge whose endpoints are already assigned.
    fn edges_consistent(
        &self,
        kb: &Kb,
        row: &[Value],
        node_index: &std::collections::HashMap<usize, usize>,
        assignment: &[Option<ResourceId>],
    ) -> bool {
        for e in &self.edges {
            let si = node_index[&e.subject];
            let oi = node_index[&e.object];
            match (self.nodes[oi].class, assignment[si], assignment[oi]) {
                (Some(_), Some(s), Some(o)) if !kb.holds(s, e.property, o) => {
                    return false;
                }
                (None, Some(s), _) => {
                    let Some(lit) = row.get(e.object).and_then(Value::as_str) else {
                        return false;
                    };
                    if !kb.holds_literal(s, e.property, lit) {
                        return false;
                    }
                }
                _ => {} // endpoint not yet assigned
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use katara_kb::KbBuilder;
    use katara_table::Table;

    /// The paper's Figure 1/2 setting: person–country–capital with the two
    /// relationships, Yago-style.
    fn fig1() -> (Kb, Table, TablePattern) {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let country = b.class("country");
        let capital = b.class("capital");
        let nationality = b.property("nationality");
        let has_capital = b.property("hasCapital");

        let rossi = b.entity("Rossi", &[person]);
        let klate = b.entity("Klate", &[person]);
        let pirlo = b.entity("Pirlo", &[person]);
        let italy = b.entity("Italy", &[country]);
        let sa = b.entity("S. Africa", &[country]);
        let spain = b.entity("Spain", &[country]);
        let rome = b.entity("Rome", &[capital]);
        let _pretoria = b.entity("Pretoria", &[capital]);
        let madrid = b.entity("Madrid", &[capital]);
        b.fact(rossi, nationality, italy);
        b.fact(klate, nationality, sa);
        b.fact(pirlo, nationality, italy);
        b.fact(italy, has_capital, rome);
        b.fact(spain, has_capital, madrid);
        // NOTE: S. Africa -> Pretoria deliberately missing (t2 case).
        let kb = b.finalize();

        let mut t = Table::with_opaque_columns("soccer", 3);
        t.push_text_row(&["Rossi", "Italy", "Rome"]);
        t.push_text_row(&["Klate", "S. Africa", "Pretoria"]);
        t.push_text_row(&["Pirlo", "Italy", "Madrid"]);

        let pattern = TablePattern::new(
            vec![
                PatternNode {
                    column: 0,
                    class: Some(person),
                },
                PatternNode {
                    column: 1,
                    class: Some(country),
                },
                PatternNode {
                    column: 2,
                    class: Some(capital),
                },
            ],
            vec![
                PatternEdge {
                    subject: 0,
                    object: 1,
                    property: nationality,
                },
                PatternEdge {
                    subject: 1,
                    object: 2,
                    property: has_capital,
                },
            ],
            4.49,
        )
        .unwrap();
        (kb, t, pattern)
    }

    #[test]
    fn t1_matches_fully() {
        let (kb, t, p) = fig1();
        let r = p.match_tuple(&kb, t.row(0));
        assert_eq!(r.outcome, TupleMatch::Full);
        assert!(r.node_ok.iter().all(|&b| b));
        assert!(r.edge_ok.iter().all(|&b| b));
        assert!(r.assignment.iter().all(Option::is_some));
    }

    #[test]
    fn t2_partial_missing_edge() {
        let (kb, t, p) = fig1();
        let r = p.match_tuple(&kb, t.row(1));
        assert_eq!(r.outcome, TupleMatch::Partial);
        assert!(r.node_ok.iter().all(|&b| b), "all types present in KB");
        assert!(r.edge_ok[0], "nationality holds");
        assert!(!r.edge_ok[1], "hasCapital(S. Africa, Pretoria) missing");
    }

    #[test]
    fn t3_partial_error_case() {
        let (kb, t, p) = fig1();
        let r = p.match_tuple(&kb, t.row(2));
        assert_eq!(r.outcome, TupleMatch::Partial);
        assert!(!r.edge_ok[1], "hasCapital(Italy, Madrid) must not hold");
    }

    #[test]
    fn consistency_matters_for_full_match() {
        // Two homonym resources: "Georgia" the country (capital Tbilisi)
        // and "Georgia" the US state (capital Atlanta). A row (Georgia,
        // Atlanta) satisfies the *existential* per-element checks against
        // type country only via the state homonym — there must be no Full
        // match against (country, capital, hasCapital) unless one single
        // resource works for both conditions.
        let mut b = KbBuilder::new();
        let country = b.class("country");
        let state = b.class("state");
        let capital = b.class("capital");
        let has_capital = b.property("hasCapital");
        let georgia_c = b.entity_labeled("Georgia_(country)", "Georgia", &[country]);
        let georgia_s = b.entity_labeled("Georgia_(state)", "Georgia", &[state]);
        let tbilisi = b.entity("Tbilisi", &[capital]);
        let atlanta = b.entity("Atlanta", &[capital]);
        b.fact(georgia_c, has_capital, tbilisi);
        b.fact(georgia_s, has_capital, atlanta);
        let kb = b.finalize();

        let p = TablePattern::new(
            vec![
                PatternNode {
                    column: 0,
                    class: Some(country),
                },
                PatternNode {
                    column: 1,
                    class: Some(capital),
                },
            ],
            vec![PatternEdge {
                subject: 0,
                object: 1,
                property: has_capital,
            }],
            1.0,
        )
        .unwrap();

        let mut t = Table::with_opaque_columns("t", 2);
        t.push_text_row(&["Georgia", "Atlanta"]);
        t.push_text_row(&["Georgia", "Tbilisi"]);

        // (Georgia, Atlanta): type-check passes (country homonym exists),
        // edge exists only for the state homonym → Partial, not Full.
        let r = p.match_tuple(&kb, t.row(0));
        assert_eq!(r.outcome, TupleMatch::Partial);
        // (Georgia, Tbilisi): the country homonym satisfies both → Full.
        let r = p.match_tuple(&kb, t.row(1));
        assert_eq!(r.outcome, TupleMatch::Full);
        assert_eq!(r.assignment[0], Some(georgia_c));
    }

    #[test]
    fn literal_edge_matching() {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let height = b.property("hasHeight");
        let rossi = b.entity("Rossi", &[person]);
        b.literal_fact(rossi, height, "1.78");
        let kb = b.finalize();

        let p = TablePattern::new(
            vec![
                PatternNode {
                    column: 0,
                    class: Some(person),
                },
                PatternNode {
                    column: 1,
                    class: None,
                },
            ],
            vec![PatternEdge {
                subject: 0,
                object: 1,
                property: height,
            }],
            1.0,
        )
        .unwrap();

        let mut t = Table::with_opaque_columns("t", 2);
        t.push_text_row(&["Rossi", "1.78"]);
        t.push_text_row(&["Rossi", "1.93"]);

        assert_eq!(p.match_tuple(&kb, t.row(0)).outcome, TupleMatch::Full);
        let r = p.match_tuple(&kb, t.row(1));
        assert_eq!(r.outcome, TupleMatch::Partial);
        assert!(!r.edge_ok[0]);
    }

    #[test]
    fn no_match_when_nothing_holds() {
        let (kb, _, p) = fig1();
        let row = vec![
            Value::from_cell("Zzzz"),
            Value::from_cell("Qqqq"),
            Value::from_cell("Wwww"),
        ];
        assert_eq!(p.match_tuple(&kb, &row).outcome, TupleMatch::None);
    }

    #[test]
    fn null_cells_fail_their_conditions() {
        let (kb, _, p) = fig1();
        let row = vec![
            Value::Null,
            Value::from_cell("Italy"),
            Value::from_cell("Rome"),
        ];
        let r = p.match_tuple(&kb, &row);
        assert_eq!(r.outcome, TupleMatch::Partial);
        assert!(!r.node_ok[0]);
        assert!(r.node_ok[1]);
    }

    #[test]
    fn malformed_patterns_rejected() {
        let err = TablePattern::new(
            vec![PatternNode {
                column: 0,
                class: None,
            }],
            vec![PatternEdge {
                subject: 0,
                object: 5,
                property: PropertyId(0),
            }],
            0.0,
        )
        .unwrap_err();
        assert!(matches!(err, KataraError::MalformedPattern(_)));

        let err = TablePattern::new(
            vec![
                PatternNode {
                    column: 0,
                    class: None,
                },
                PatternNode {
                    column: 0,
                    class: None,
                },
            ],
            vec![],
            0.0,
        )
        .unwrap_err();
        assert!(matches!(err, KataraError::MalformedPattern(_)));
    }

    #[test]
    fn components_split_disconnected_patterns() {
        let (_, _, p) = fig1();
        assert_eq!(p.components(), vec![vec![0, 1, 2]]);

        let p2 = TablePattern::new(
            vec![
                PatternNode {
                    column: 0,
                    class: Some(ClassId(0)),
                },
                PatternNode {
                    column: 1,
                    class: Some(ClassId(1)),
                },
                PatternNode {
                    column: 2,
                    class: Some(ClassId(2)),
                },
            ],
            vec![PatternEdge {
                subject: 0,
                object: 1,
                property: PropertyId(0),
            }],
            0.0,
        )
        .unwrap();
        assert_eq!(p2.components(), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn describe_renders_names() {
        let (kb, t, p) = fig1();
        let d = p.describe(&kb, t.columns());
        assert!(d.contains("A(person)"));
        assert!(d.contains("B -hasCapital-> C"));
    }

    #[test]
    fn typed_and_covered_columns() {
        let (_, _, p) = fig1();
        assert_eq!(p.typed_columns(), vec![0, 1, 2]);
        assert_eq!(p.covered_columns(), vec![0, 1, 2]);
    }
}
