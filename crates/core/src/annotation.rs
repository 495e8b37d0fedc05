//! Data annotation (§6.1).
//!
//! With a validated pattern in hand, every tuple is checked against the KB
//! (*Step 1*); fully covered tuples are annotated *validated by the KB*.
//! For each type or relationship instance the KB lacks, the crowd is asked
//! a boolean question (*Step 2*): all-yes makes the tuple *jointly
//! validated by KB and crowd* — and every confirmed missing fact is
//! **inserted into the KB** (enrichment), so later tuples carrying the same
//! values validate automatically (the redundancy effect the paper observes
//! on RelationalTables) — while any "no" marks the tuple *erroneous*.
//!
//! Under an unreliable crowd a fact question may come back unanswered
//! (no quorum, or the budget ran out). Such gaps are *unresolved*: the
//! tuple is neither trusted nor condemned — it is excluded from
//! enrichment and from repair generation instead of being mislabeled.

use std::borrow::Cow;
use std::collections::HashMap;

use katara_crowd::{Answer, Crowd, Oracle, Question};
use katara_kb::{EnrichmentDelta, Kb, ResourceId};
use katara_table::Table;

use crate::pattern::{TablePattern, TupleMatch};
use crate::resolve::TableResolution;

/// Who vouched for a value / relationship instance (Table 5's categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Present in the KB.
    Kb,
    /// Missing from the KB, confirmed by the crowd.
    Crowd,
    /// Rejected by the crowd: an error.
    Error,
    /// Missing from the KB and the crowd never settled (no quorum or
    /// budget exhausted): neither confirmed nor rejected.
    Unresolved,
}

/// A tuple's overall annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleStatus {
    /// Case (i): fully covered by the KB.
    ValidatedByKb,
    /// Case (ii): gaps existed, all confirmed by the crowd.
    ValidatedWithCrowd,
    /// Case (iii): the crowd rejected at least one gap.
    Erroneous,
    /// Degraded case: at least one gap went unanswered and none was
    /// rejected. The tuple is not marked erroneous, triggers no KB
    /// enrichment, and receives no repairs.
    Unresolved,
}

/// Per-tuple detail.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleAnnotation {
    /// Row index.
    pub row: usize,
    /// Overall status.
    pub status: TupleStatus,
    /// Category per pattern node (same order as the pattern's nodes;
    /// untyped nodes mirror their edge evidence).
    pub node_categories: Vec<Category>,
    /// Category per pattern edge.
    pub edge_categories: Vec<Category>,
}

/// Pattern feedback: if the crowd rejects one pattern element (a node's
/// type or an edge) on more than this fraction of the tuples, the
/// element — not the data — is wrong (e.g. a `hasCapital` edge that
/// crept onto a generic city column). The element is stripped and the
/// table re-annotated once. This is a robustification beyond the paper:
/// MUVF validation never challenges an edge all top-k patterns agree on.
const FEEDBACK_THRESHOLD: f64 = 0.5;

/// Minimum tuples before pattern feedback may trigger (tiny tables
/// cannot outvote their own errors).
const FEEDBACK_MIN_TUPLES: usize = 8;

/// Annotation knobs.
#[derive(Debug, Clone)]
pub struct AnnotationConfig {
    /// Insert crowd-confirmed facts into the KB (§6.1 enrichment). On by
    /// default; the Table 5 ablation turns it off.
    pub enrich_kb: bool,
}

impl Default for AnnotationConfig {
    fn default() -> Self {
        AnnotationConfig { enrich_kb: true }
    }
}

/// The output of annotating a whole table.
#[derive(Debug, Clone)]
pub struct AnnotationResult {
    /// One annotation per row.
    pub tuples: Vec<TupleAnnotation>,
    /// Facts inserted into the KB by enrichment.
    pub enriched_facts: usize,
    /// Entities created in the KB by enrichment.
    pub enriched_entities: usize,
    /// The effective pattern: the input pattern, possibly with elements
    /// stripped by pattern feedback. Downstream repair generation must
    /// use this one.
    pub pattern: TablePattern,
    /// Elements removed by feedback, as human-readable descriptions.
    pub feedback_stripped: Vec<String>,
    /// Every KB write enrichment performed, recorded by name — the
    /// durable-serving path journals this and applies it to the shared
    /// store; batch callers may ignore it.
    pub delta: EnrichmentDelta,
}

impl AnnotationResult {
    /// Fractions of type (node) instances per category:
    /// `[KB, crowd, error]`, as in Table 5's left half. Unresolved
    /// instances are excluded from the denominator — Table 5 reports
    /// the breakdown of *settled* instances.
    pub fn type_fractions(&self) -> [f64; 3] {
        fractions(self.tuples.iter().flat_map(|t| &t.node_categories))
    }

    /// Fractions of relationship (edge) instances per category.
    pub fn relationship_fractions(&self) -> [f64; 3] {
        fractions(self.tuples.iter().flat_map(|t| &t.edge_categories))
    }

    /// Rows annotated erroneous.
    pub fn erroneous_rows(&self) -> Vec<usize> {
        self.tuples
            .iter()
            .filter(|t| t.status == TupleStatus::Erroneous)
            .map(|t| t.row)
            .collect()
    }

    /// Rows whose annotation went unresolved under a degraded crowd.
    pub fn unresolved_rows(&self) -> Vec<usize> {
        self.tuples
            .iter()
            .filter(|t| t.status == TupleStatus::Unresolved)
            .map(|t| t.row)
            .collect()
    }

    /// Count per status.
    pub fn status_count(&self, s: TupleStatus) -> usize {
        self.tuples.iter().filter(|t| t.status == s).count()
    }
}

fn fractions<'a>(cats: impl Iterator<Item = &'a Category>) -> [f64; 3] {
    let mut counts = [0usize; 3];
    let mut total = 0usize;
    for c in cats {
        let i = match c {
            Category::Kb => 0,
            Category::Crowd => 1,
            Category::Error => 2,
            Category::Unresolved => continue,
        };
        counts[i] += 1;
        total += 1;
    }
    if total == 0 {
        return [0.0; 3];
    }
    [
        counts[0] as f64 / total as f64,
        counts[1] as f64 / total as f64,
        counts[2] as f64 / total as f64,
    ]
}

/// Annotate every tuple of `table` under `pattern`, consulting `crowd`
/// for KB gaps and enriching `kb` with confirmed facts. When pattern
/// feedback trips (the crowd rejects one pattern element on more than
/// half of the tuples), the offending elements are stripped and the
/// table re-annotated once; the effective pattern is returned in the
/// result.
///
/// The crowd's deadline ([`Crowd::deadline`]) is checked at the top of
/// the per-row loop: rows reached after expiry are annotated
/// [`Unresolved`](TupleStatus::Unresolved) without touching the KB or the
/// crowd, and the feedback re-pass is skipped.
pub fn annotate<O: Oracle>(
    table: &Table,
    pattern: &TablePattern,
    kb: &mut Kb,
    crowd: &mut Crowd<O>,
    config: &AnnotationConfig,
) -> AnnotationResult {
    annotate_resolved(table, pattern, kb, crowd, config, None)
}

/// Snapshot-aware variant of [`annotate`]: cell lookups during tuple
/// matching and entity resolution go through `resolution` when given,
/// which must be current for `kb` ([`TableResolution::is_current`]).
/// KB enrichment mutates `kb` mid-run; before a read that an entity
/// write could change, the snapshot is patched with the writes, never
/// read stale, so results are identical to the live-query [`annotate`].
/// The patches go to a private copy, made on the first patch;
/// `resolution` itself is never mutated.
pub fn annotate_resolved<O: Oracle>(
    table: &Table,
    pattern: &TablePattern,
    kb: &mut Kb,
    crowd: &mut Crowd<O>,
    config: &AnnotationConfig,
    resolution: Option<&TableResolution>,
) -> AnnotationResult {
    let mut snapshot = resolution.map(Cow::Borrowed);
    annotate_resolved_cached(table, pattern, kb, crowd, config, snapshot.as_mut(), None)
}

/// [`annotate_resolved`] over a caller-held copy-on-write snapshot, with
/// a carry-over cache. On return `resolution` is current for `kb` again:
/// an owned snapshot is patched in place, a borrowed one is replaced by
/// its patched copy once enrichment writes.
///
/// `full_rows[r]` asserts that row `r` matched the pattern [`TupleMatch::Full`] on a previous
/// run *under this same pattern* and that nothing affecting the match
/// (the row's cells, the KB) has changed since. Such rows synthesize
/// their all-KB annotation without re-matching. A `Full` row asks no
/// crowd questions and triggers no enrichment, so skipping the match is
/// output-invisible — the incremental engine's correctness argument
/// (DESIGN.md §5j) rests on callers only passing rows whose `Full`
/// outcome is still guaranteed. The feedback re-pass never uses the
/// cache (the stripped pattern differs from the cached one).
#[allow(clippy::too_many_arguments)]
pub fn annotate_resolved_cached<O: Oracle>(
    table: &Table,
    pattern: &TablePattern,
    kb: &mut Kb,
    crowd: &mut Crowd<O>,
    config: &AnnotationConfig,
    resolution: Option<&mut Cow<'_, TableResolution>>,
    full_rows: Option<&[bool]>,
) -> AnnotationResult {
    debug_assert!(
        resolution.as_ref().is_none_or(|r| r.is_current(kb)),
        "annotation needs a snapshot current for its KB"
    );
    // Capture spans both annotation passes: the returned delta is the
    // complete, replayable record of what this run wrote to `kb`, and the
    // snapshot view follows the KB through it.
    kb.begin_delta_capture();
    let mut view = SnapshotView {
        snapshot: resolution,
        patched: 0,
    };
    let mut result =
        annotate_resolved_inner(table, pattern, kb, crowd, config, &mut view, full_rows);
    // Leave the caller's snapshot current in every tier.
    view.patch_if(kb, TableResolution::is_current);
    result.delta = kb.take_delta();
    result
}

/// Annotation's copy-on-write view of the snapshot: every read goes
/// through [`Self::current`], which folds the enrichment writes captured
/// since the last patch into the snapshot via
/// [`TableResolution::apply_enrichment`] once an entity write has made
/// its candidate tier stale. A borrowed snapshot is cloned on the first
/// patch, so a run without writes never copies.
struct SnapshotView<'s, 'r> {
    snapshot: Option<&'s mut Cow<'r, TableResolution>>,
    /// How many of `Kb::captured_ops` are already folded in.
    patched: usize,
}

impl SnapshotView<'_, '_> {
    /// The snapshot with its candidate tier current for `kb`; `None`
    /// without one. Annotation reads no other tier, and only an entity
    /// write moves that one, so type and fact writes wait for the next
    /// entity write or the end of the run.
    fn current(&mut self, kb: &Kb) -> Option<&TableResolution> {
        self.patch_if(kb, TableResolution::candidates_current)
    }

    /// The snapshot, first patched with every write since the last patch
    /// unless `current` holds for it.
    fn patch_if(
        &mut self,
        kb: &Kb,
        current: fn(&TableResolution, &Kb) -> bool,
    ) -> Option<&TableResolution> {
        let snapshot = self.snapshot.as_deref_mut()?;
        if !current(snapshot, kb) {
            let ops = &kb.captured_ops()[self.patched..];
            snapshot.to_mut().apply_enrichment(kb, ops);
            self.patched += ops.len();
        }
        Some(snapshot)
    }
}

#[allow(clippy::too_many_arguments)]
fn annotate_resolved_inner<O: Oracle>(
    table: &Table,
    pattern: &TablePattern,
    kb: &mut Kb,
    crowd: &mut Crowd<O>,
    config: &AnnotationConfig,
    view: &mut SnapshotView,
    full_rows: Option<&[bool]>,
) -> AnnotationResult {
    // Boolean fact answers are memoized: duplicate tuples (and the
    // feedback re-pass) must not re-ask the crowd the same question —
    // a no-answer is as reusable as a yes-answer.
    let mut memo: HashMap<(String, String, String), bool> = HashMap::new();
    let result = annotate_once(
        table, pattern, kb, crowd, config, &mut memo, view, full_rows,
    );
    if table.num_rows() < FEEDBACK_MIN_TUPLES {
        return result;
    }
    if crowd.deadline().triggered() {
        // The first pass already degraded; a feedback re-pass would only
        // mass-produce Unresolved rows from a dead crowd.
        return result;
    }
    // Error fraction per element.
    let n = table.num_rows() as f64;
    let mut bad_nodes: Vec<usize> = Vec::new();
    let mut bad_edges: Vec<usize> = Vec::new();
    for ni in 0..pattern.nodes().len() {
        let errors = result
            .tuples
            .iter()
            .filter(|t| t.node_categories[ni] == Category::Error)
            .count();
        if errors as f64 / n > FEEDBACK_THRESHOLD {
            bad_nodes.push(ni);
        }
    }
    for ei in 0..pattern.edges().len() {
        let errors = result
            .tuples
            .iter()
            .filter(|t| t.edge_categories[ei] == Category::Error)
            .count();
        if errors as f64 / n > FEEDBACK_THRESHOLD {
            bad_edges.push(ei);
        }
    }
    if bad_nodes.is_empty() && bad_edges.is_empty() {
        return result;
    }
    // Strip and re-annotate once.
    let mut nodes = pattern.nodes().to_vec();
    let mut edges: Vec<crate::pattern::PatternEdge> = pattern
        .edges()
        .iter()
        .enumerate()
        .filter(|(ei, _)| !bad_edges.contains(ei))
        .map(|(_, e)| *e)
        .collect();
    let mut stripped = Vec::new();
    for &ni in &bad_nodes {
        if let Some(c) = nodes[ni].class {
            stripped.push(format!(
                "type {} on column {}",
                kb.class_name(c),
                nodes[ni].column
            ));
            nodes[ni].class = None;
        }
    }
    for &ei in &bad_edges {
        let e = pattern.edges()[ei];
        stripped.push(format!(
            "edge {} from column {} to column {}",
            kb.property_name(e.property),
            e.subject,
            e.object
        ));
    }
    nodes.retain(|nd| {
        nd.class.is_some()
            || edges
                .iter()
                .any(|e| e.subject == nd.column || e.object == nd.column)
    });
    edges.retain(|e| {
        nodes.iter().any(|nd| nd.column == e.subject)
            && nodes.iter().any(|nd| nd.column == e.object)
    });
    let Ok(reduced) = TablePattern::new(nodes, edges, pattern.score()) else {
        return result; // cannot strip into a valid pattern; keep pass 1
    };
    let mut second = annotate_once(table, &reduced, kb, crowd, config, &mut memo, view, None);
    second.enriched_facts += result.enriched_facts;
    second.enriched_entities += result.enriched_entities;
    second.feedback_stripped = stripped;
    second
}

/// One annotation pass (no feedback). `memo` caches crowd answers to
/// boolean fact questions across tuples and passes.
#[allow(clippy::too_many_arguments)]
fn annotate_once<O: Oracle>(
    table: &Table,
    pattern: &TablePattern,
    kb: &mut Kb,
    crowd: &mut Crowd<O>,
    config: &AnnotationConfig,
    memo: &mut HashMap<(String, String, String), bool>,
    view: &mut SnapshotView,
    full_rows: Option<&[bool]>,
) -> AnnotationResult {
    let mut result = AnnotationResult {
        tuples: Vec::new(),
        enriched_facts: 0,
        enriched_entities: 0,
        pattern: pattern.clone(),
        feedback_stripped: Vec::new(),
        delta: EnrichmentDelta::default(),
    };
    for row_idx in 0..table.num_rows() {
        if crowd.deadline().expired() {
            // Past the deadline a row gets no KB matching and no crowd
            // contact: neither trusted nor condemned, exactly like a
            // crowd that never settled.
            result.tuples.push(TupleAnnotation {
                row: row_idx,
                status: TupleStatus::Unresolved,
                node_categories: vec![Category::Unresolved; pattern.nodes().len()],
                edge_categories: vec![Category::Unresolved; pattern.edges().len()],
            });
            continue;
        }
        if full_rows.is_some_and(|f| f.get(row_idx).copied().unwrap_or(false)) {
            // Carried-over Full row: matches fully, asks nothing, enriches
            // nothing — identical output without re-matching.
            result.tuples.push(TupleAnnotation {
                row: row_idx,
                status: TupleStatus::ValidatedByKb,
                node_categories: vec![Category::Kb; pattern.nodes().len()],
                edge_categories: vec![Category::Kb; pattern.edges().len()],
            });
            continue;
        }
        let row = table.row(row_idx);
        let report = pattern.match_tuple_resolved(kb, row, view.current(kb).map(|r| (r, row_idx)));

        if report.outcome == TupleMatch::Full {
            result.tuples.push(TupleAnnotation {
                row: row_idx,
                status: TupleStatus::ValidatedByKb,
                node_categories: vec![Category::Kb; pattern.nodes().len()],
                edge_categories: vec![Category::Kb; pattern.edges().len()],
            });
            continue;
        }

        // Step 2: ask the crowd about each missing element.
        let mut node_categories = Vec::with_capacity(pattern.nodes().len());
        let mut edge_categories = Vec::with_capacity(pattern.edges().len());
        let mut any_error = false;
        let mut any_unresolved = false;
        let mut confirmed_nodes: Vec<usize> = Vec::new();
        let mut confirmed_edges: Vec<usize> = Vec::new();

        for (ni, node) in pattern.nodes().iter().enumerate() {
            if report.node_ok[ni] {
                node_categories.push(Category::Kb);
                continue;
            }
            let Some(class) = node.class else {
                node_categories.push(Category::Kb);
                continue;
            };
            let Some(cell) = row.get(node.column).and_then(|v| v.as_str()) else {
                // A null cell cannot be confirmed; it is an error w.r.t.
                // the pattern.
                node_categories.push(Category::Error);
                any_error = true;
                continue;
            };
            match ask_memoized(crowd, memo, cell, "hasType", kb.class_name(class)) {
                Some(true) => {
                    node_categories.push(Category::Crowd);
                    confirmed_nodes.push(ni);
                }
                Some(false) => {
                    node_categories.push(Category::Error);
                    any_error = true;
                }
                None => {
                    node_categories.push(Category::Unresolved);
                    any_unresolved = true;
                }
            }
        }

        for (ei, edge) in pattern.edges().iter().enumerate() {
            if report.edge_ok[ei] {
                edge_categories.push(Category::Kb);
                continue;
            }
            let subj = row.get(edge.subject).and_then(|v| v.as_str());
            let obj = row.get(edge.object).and_then(|v| v.as_str());
            let (Some(subj), Some(obj)) = (subj, obj) else {
                edge_categories.push(Category::Error);
                any_error = true;
                continue;
            };
            match ask_memoized(crowd, memo, subj, kb.property_name(edge.property), obj) {
                Some(true) => {
                    edge_categories.push(Category::Crowd);
                    confirmed_edges.push(ei);
                }
                Some(false) => {
                    edge_categories.push(Category::Error);
                    any_error = true;
                }
                None => {
                    edge_categories.push(Category::Unresolved);
                    any_unresolved = true;
                }
            }
        }

        let status = if any_error {
            // A definite rejection condemns the tuple even if other gaps
            // went unanswered.
            TupleStatus::Erroneous
        } else if any_unresolved {
            // Degraded: neither trusted nor condemned, and never used
            // for enrichment.
            TupleStatus::Unresolved
        } else {
            // Enrich the KB with the crowd-confirmed facts so later
            // occurrences validate automatically.
            if config.enrich_kb {
                enrich(
                    kb,
                    pattern,
                    (row, row_idx),
                    &confirmed_nodes,
                    &confirmed_edges,
                    &mut result,
                    view,
                );
            }
            TupleStatus::ValidatedWithCrowd
        };
        result.tuples.push(TupleAnnotation {
            row: row_idx,
            status,
            node_categories,
            edge_categories,
        });
    }
    result
}

/// Ask a boolean fact question, reusing a prior answer when the same
/// statement was already posed. `None` means the crowd never settled
/// (no quorum, or the budget ran out); unsettled questions are *not*
/// memoized — a later duplicate may legitimately try again.
fn ask_memoized<O: Oracle>(
    crowd: &mut Crowd<O>,
    memo: &mut HashMap<(String, String, String), bool>,
    subject: &str,
    property: &str,
    object: &str,
) -> Option<bool> {
    let key = (
        subject.to_string(),
        property.to_string(),
        object.to_string(),
    );
    if let Some(&answer) = memo.get(&key) {
        return Some(answer);
    }
    let q = Question::Fact {
        subject: key.0.clone(),
        property: key.1.clone(),
        object: key.2.clone(),
    };
    let answer = crowd.ask(&q).answer()? == Answer::Bool(true);
    memo.insert(key, answer);
    Some(answer)
}

/// Insert crowd-confirmed types and relationships into the KB.
fn enrich(
    kb: &mut Kb,
    pattern: &TablePattern,
    (row, row_idx): (&[katara_table::Value], usize),
    confirmed_nodes: &[usize],
    confirmed_edges: &[usize],
    result: &mut AnnotationResult,
    view: &mut SnapshotView,
) {
    let created = &mut result.enriched_entities;
    for &ni in confirmed_nodes {
        let node = pattern.nodes()[ni];
        let (Some(class), Some(cell)) = (node.class, row[node.column].as_str()) else {
            continue;
        };
        let r = resolve_or_create(kb, view, (node.column, row_idx), cell, created);
        kb.add_type(r, class);
    }
    for &ei in confirmed_edges {
        let edge = pattern.edges()[ei];
        let (Some(subj), Some(obj)) = (row[edge.subject].as_str(), row[edge.object].as_str())
        else {
            continue;
        };
        let s = resolve_or_create(kb, view, (edge.subject, row_idx), subj, created);
        let obj_node = pattern.node_for_column(edge.object);
        let is_literal = obj_node.is_none_or(|n| n.class.is_none());
        let added = if is_literal {
            kb.add_literal_fact(s, edge.property, obj)
        } else {
            let o = resolve_or_create(kb, view, (edge.object, row_idx), obj, created);
            kb.add_fact(s, edge.property, o)
        };
        if added {
            result.enriched_facts += 1;
        }
    }
}

/// Resolve cell `(column, row)` to its best-matching KB resource,
/// creating a fresh entity when the KB has never heard of the value. The
/// lookup goes through the snapshot view when one is in play — patched
/// first, since the previous cell of the same row may just have created
/// the entity this one matches — and live otherwise.
fn resolve_or_create(
    kb: &mut Kb,
    view: &mut SnapshotView,
    (col, row): (usize, usize),
    cell: &str,
    created: &mut usize,
) -> ResourceId {
    let best = |cands: &[(ResourceId, f64)]| cands.first().map(|&(r, _)| r);
    let hit = match view
        .current(kb)
        .and_then(|res| res.candidates(kb, col, row))
    {
        Some(cands) => best(cands),
        None => best(&kb.candidate_resources(cell)),
    };
    if let Some(r) = hit {
        return r;
    }
    *created += 1;
    kb.add_entity(cell, cell, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PatternEdge, PatternNode};
    use katara_crowd::{Crowd, CrowdConfig};
    use katara_kb::KbBuilder;

    /// Figure 1/2 exactly: t1 full match, t2 missing-but-true edge,
    /// t3 missing-and-false edge.
    fn setting() -> (Kb, Table, TablePattern) {
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
            1.0,
        )
        .unwrap();
        (kb, t, pattern)
    }

    /// The ground truth of the paper's example: S. Africa's capital IS
    /// Pretoria (KB is incomplete); Italy's capital is NOT Madrid.
    fn world_oracle() -> impl Oracle {
        |q: &Question| match q {
            Question::Fact {
                subject,
                property,
                object,
            } => {
                let truth = match (subject.as_str(), property.as_str(), object.as_str()) {
                    ("S. Africa", "hasCapital", "Pretoria") => true,
                    ("Italy", "hasCapital", "Madrid") => false,
                    _ => true,
                };
                Answer::Bool(truth)
            }
            _ => Answer::NoneOfTheAbove,
        }
    }

    fn perfect_crowd() -> Crowd<impl Oracle> {
        Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                ..CrowdConfig::default()
            },
            world_oracle(),
        )
        .unwrap()
    }

    #[test]
    fn figure2_annotation() {
        let (mut kb, t, pattern) = setting();
        let mut crowd = perfect_crowd();
        let result = annotate(
            &t,
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        assert_eq!(result.tuples[0].status, TupleStatus::ValidatedByKb);
        assert_eq!(result.tuples[1].status, TupleStatus::ValidatedWithCrowd);
        assert_eq!(result.tuples[2].status, TupleStatus::Erroneous);
        assert_eq!(result.erroneous_rows(), vec![2]);
    }

    #[test]
    fn enrichment_inserts_the_new_fact() {
        let (mut kb, t, pattern) = setting();
        let mut crowd = perfect_crowd();
        let result = annotate(
            &t,
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        assert_eq!(result.enriched_facts, 1, "S. Africa hasCapital Pretoria");
        let sa = kb.resource_by_name("S. Africa").unwrap();
        let pretoria = kb.resource_by_name("Pretoria").unwrap();
        let has_capital = kb.property_by_name("hasCapital").unwrap();
        assert!(kb.holds(sa, has_capital, pretoria));
    }

    #[test]
    fn enrichment_makes_duplicates_kb_validated() {
        let (mut kb, mut t, pattern) = setting();
        // Append a duplicate of the t2 tuple: after enrichment it must be
        // validated by the KB alone, with no extra crowd question.
        t.push_text_row(&["Klate", "S. Africa", "Pretoria"]);
        let mut crowd = perfect_crowd();
        let result = annotate(
            &t,
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        assert_eq!(result.tuples[3].status, TupleStatus::ValidatedByKb);
        // Questions: one for t2's missing edge, one for t3's — none for t4.
        assert_eq!(crowd.stats().questions(), 2);
    }

    #[test]
    fn enrichment_can_be_disabled() {
        let (mut kb, mut t, pattern) = setting();
        t.push_text_row(&["Klate", "S. Africa", "Pretoria"]);
        let mut crowd = perfect_crowd();
        let result = annotate(
            &t,
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig { enrich_kb: false },
        );
        assert_eq!(result.enriched_facts, 0);
        assert_eq!(result.tuples[3].status, TupleStatus::ValidatedWithCrowd);
        // Even without KB enrichment, the duplicate tuple's question is
        // answered from the memo — the crowd is never asked twice.
        assert_eq!(crowd.stats().questions(), 2);
    }

    #[test]
    fn category_fractions() {
        let (mut kb, t, pattern) = setting();
        let mut crowd = perfect_crowd();
        let result = annotate(
            &t,
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        // 9 node instances, all in the KB.
        let tf = result.type_fractions();
        assert!((tf[0] - 1.0).abs() < 1e-12);
        // 6 edge instances: 4 KB, 1 crowd, 1 error.
        let rf = result.relationship_fractions();
        assert!((rf[0] - 4.0 / 6.0).abs() < 1e-12);
        assert!((rf[1] - 1.0 / 6.0).abs() < 1e-12);
        assert!((rf[2] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_type_confirmed_by_crowd_creates_entity() {
        let (mut kb, _, pattern) = setting();
        let mut t = Table::with_opaque_columns("soccer", 3);
        // Totti is missing from the KB entirely.
        t.push_text_row(&["Totti", "Italy", "Rome"]);
        let mut crowd = perfect_crowd();
        let result = annotate(
            &t,
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        assert_eq!(result.tuples[0].status, TupleStatus::ValidatedWithCrowd);
        assert_eq!(result.enriched_entities, 1);
        let totti = kb.resource_by_name("Totti").expect("created by enrichment");
        assert!(kb.has_type(totti, kb.class_by_name("person").unwrap()));
    }

    #[test]
    fn pattern_feedback_strips_spurious_edge() {
        // A pattern with a wrong extra edge: "person hasCapital country"
        // fails for every tuple. Feedback must strip it and re-annotate
        // cleanly.
        let (mut kb, _, _) = setting();
        let person = kb.class_by_name("person").unwrap();
        let country = kb.class_by_name("country").unwrap();
        let nationality = kb.property_by_name("nationality").unwrap();
        let has_capital = kb.property_by_name("hasCapital").unwrap();
        let bad_pattern = TablePattern::new(
            vec![
                PatternNode {
                    column: 0,
                    class: Some(person),
                },
                PatternNode {
                    column: 1,
                    class: Some(country),
                },
            ],
            vec![
                PatternEdge {
                    subject: 0,
                    object: 1,
                    property: nationality,
                },
                PatternEdge {
                    subject: 0,
                    object: 1,
                    property: has_capital,
                },
            ],
            1.0,
        )
        .unwrap();
        let mut t = Table::with_opaque_columns("t", 2);
        for _ in 0..4 {
            t.push_text_row(&["Rossi", "Italy"]);
            t.push_text_row(&["Klate", "S. Africa"]);
        }
        let oracle = |q: &Question| match q {
            Question::Fact { property, .. } => Answer::Bool(property == "nationality"),
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
        let result = annotate(
            &t,
            &bad_pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        assert_eq!(result.feedback_stripped.len(), 1);
        assert!(result.feedback_stripped[0].contains("hasCapital"));
        assert_eq!(result.pattern.edges().len(), 1);
        assert!(
            result.erroneous_rows().is_empty(),
            "after stripping, no tuple is erroneous"
        );
    }

    #[test]
    fn pattern_feedback_respects_min_tuples() {
        // Below the FEEDBACK_MIN_TUPLES floor nothing is stripped even if
        // every tuple fails.
        let (mut kb, t, pattern) = setting();
        let oracle = |_q: &Question| Answer::Bool(false);
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                ..CrowdConfig::default()
            },
            oracle,
        )
        .unwrap();
        let result = annotate(
            &t, // 3 rows < FEEDBACK_MIN_TUPLES (8)
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        assert!(result.feedback_stripped.is_empty());
        assert_eq!(result.pattern, pattern);
    }

    #[test]
    fn no_quorum_gaps_leave_tuples_unresolved() {
        let (mut kb, t, pattern) = setting();
        // Every fact question fails (total dropout): t2 and t3 have KB
        // gaps that now go unanswered. Neither may be marked erroneous,
        // and nothing may be enriched.
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                faults: katara_crowd::FaultPlan {
                    dropout_rate: 1.0,
                    ..katara_crowd::FaultPlan::default()
                },
                ..CrowdConfig::default()
            },
            world_oracle(),
        )
        .unwrap();
        let result = annotate(
            &t,
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        assert_eq!(result.tuples[0].status, TupleStatus::ValidatedByKb);
        assert_eq!(result.tuples[1].status, TupleStatus::Unresolved);
        assert_eq!(result.tuples[2].status, TupleStatus::Unresolved);
        assert_eq!(result.unresolved_rows(), vec![1, 2]);
        assert!(result.erroneous_rows().is_empty());
        assert_eq!(result.enriched_facts, 0);
        assert_eq!(result.enriched_entities, 0);
        // The unanswered gap instances are excluded from the Table 5
        // breakdown rather than polluting the error column.
        let rf = result.relationship_fractions();
        assert!((rf[0] - 1.0).abs() < 1e-12, "{rf:?}");
        assert!(rf[2].abs() < 1e-12, "{rf:?}");
    }

    #[test]
    fn definite_rejection_beats_unresolved_gaps() {
        // A tuple with one rejected gap and later unanswered gaps is
        // erroneous — the rejection is real evidence; the unanswered
        // questions don't soften it to Unresolved.
        let (mut kb, _, pattern) = setting();
        let mut t = Table::with_opaque_columns("soccer", 3);
        t.push_text_row(&["Nobody", "Italy", "Madrid"]);
        // The crowd rejects the type question (asked first), then the
        // budget runs out before the two edge gaps can be asked.
        let oracle = |q: &Question| match q {
            Question::Fact { property, .. } => Answer::Bool(property != "hasType"),
            _ => Answer::NoneOfTheAbove,
        };
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                budget: katara_crowd::Budget::questions(1),
                ..CrowdConfig::default()
            },
            oracle,
        )
        .unwrap();
        let result = annotate(
            &t,
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        assert!(crowd.is_budget_exhausted());
        assert_eq!(result.tuples[0].status, TupleStatus::Erroneous);
        assert_eq!(result.tuples[0].node_categories[0], Category::Error);
        assert_eq!(result.tuples[0].edge_categories[0], Category::Unresolved);
    }

    #[test]
    fn budget_exhaustion_mid_annotation_degrades_gracefully() {
        let (mut kb, mut t, pattern) = setting();
        // Add more gap-bearing rows so the budget dies mid-table.
        t.push_text_row(&["Nobody1", "Italy", "Rome"]);
        t.push_text_row(&["Nobody2", "Italy", "Rome"]);
        let mut crowd = Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                budget: katara_crowd::Budget::questions(2),
                ..CrowdConfig::default()
            },
            world_oracle(),
        )
        .unwrap();
        let result = annotate(
            &t,
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        assert!(crowd.is_budget_exhausted());
        // The first two gaps got answered (t2 confirmed, t3 rejected);
        // everything after ran dry and is unresolved, not erroneous.
        assert_eq!(result.tuples[1].status, TupleStatus::ValidatedWithCrowd);
        assert_eq!(result.tuples[2].status, TupleStatus::Erroneous);
        assert_eq!(result.tuples[3].status, TupleStatus::Unresolved);
        assert_eq!(result.tuples[4].status, TupleStatus::Unresolved);
        assert_eq!(result.unresolved_rows(), vec![3, 4]);
    }

    #[test]
    fn empty_table_annotates_empty() {
        let (mut kb, _, pattern) = setting();
        let t = Table::with_opaque_columns("soccer", 3);
        let mut crowd = perfect_crowd();
        let result = annotate(
            &t,
            &pattern,
            &mut kb,
            &mut crowd,
            &AnnotationConfig::default(),
        );
        assert!(result.tuples.is_empty());
        assert_eq!(result.type_fractions(), [0.0; 3]);
    }
}
