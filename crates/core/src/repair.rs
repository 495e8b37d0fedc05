//! Top-k possible repair generation (§6.2, Algorithm 4).
//!
//! For a validated pattern φ and a KB, every *instance graph* — an
//! instantiation of φ's nodes with KB resources (or literals, for untyped
//! nodes) such that all of φ's edges hold — is enumerated once, offline.
//! An *inverted list* maps `(pattern node, value)` to the instance graphs
//! carrying that value, so for an erroneous tuple only graphs overlapping
//! the tuple are considered. The repair cost of aligning tuple `t` to
//! graph `G` is the (weighted) number of cells that must change; the k
//! least-cost alignments are the top-k possible repairs.
//!
//! Patterns may be disconnected; instance graphs are enumerated per
//! connected component (the paper treats disconnected sub-patterns
//! independently) and per-component repairs combine additively. One walk
//! enumerates the graphs, `align` scores a tuple against a set of them,
//! and `combine` merges the components; the indexed and naive variants
//! share both.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use katara_exec::{Deadline, Threads};
use katara_kb::{sim, Kb, PropertyId, ResourceId};
use katara_obs::{Counter, Histogram, NoopRecorder, Recorder};
use katara_table::{Table, Value};

use crate::pattern::TablePattern;
use crate::resolve::TableResolution;

/// Repair knobs.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Cap on instance graphs enumerated per pattern component; when hit,
    /// [`RepairIndex::truncated`] reports it (no silent cap).
    pub max_graphs_per_component: usize,
    /// Optional per-column change costs `c_i` (§6.2: confidence-weighted
    /// costs); `None` = unit cost for every column.
    pub column_costs: Option<Vec<f64>>,
    /// Ambiguity cut-off: if more than this many equally-structured
    /// alternatives (same changed-column set, different values) are
    /// candidates for one tuple, none of them has evidential support —
    /// e.g. repairing a *name* from a shared *height* matches dozens of
    /// instance graphs — and the whole group is dropped. This keeps
    /// KATARA's precision high at the price of recall, the paper's
    /// Table 7 signature.
    pub max_alternatives_per_cell_set: usize,
    /// Sink for `repair.*` counters and the per-tuple repair histograms.
    /// Hit from inside `katara-exec` workers, so implementations must be
    /// thread-safe (the live recorder uses sharded atomics).
    pub recorder: Arc<dyn Recorder>,
    /// Cooperative cancellation, checked by [`RepairIndex::build`] before
    /// it walks from each seed entity and by every repair worker before
    /// it starts a tuple: the build stops with the graphs found so far,
    /// and [`generate_repairs_resolved`] truncates its output to the
    /// contiguous prefix of rows completed before expiry. Inert by
    /// default; the pipeline injects its run deadline here.
    pub deadline: Deadline,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            max_graphs_per_component: 100_000,
            column_costs: None,
            max_alternatives_per_cell_set: 5,
            recorder: Arc::new(NoopRecorder),
            deadline: Deadline::none(),
        }
    }
}

impl RepairConfig {
    /// The change cost `c_i` of column `col`: 1.0 without per-column
    /// costs.
    fn column_cost(&self, col: usize) -> f64 {
        self.column_costs
            .as_ref()
            .and_then(|c| c.get(col))
            .copied()
            .unwrap_or(1.0)
    }
}

/// One node's value inside an instance graph.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeVal {
    Res(ResourceId),
    Lit(String),
}

/// One instance graph: a value per component node (aligned with
/// `ComponentIndex::node_indexes`).
#[derive(Debug, Clone)]
struct InstanceGraph {
    values: Vec<NodeVal>,
    /// Normalized form of each value, computed once at index build time
    /// and shared by the inverted lists and every per-tuple cost check
    /// (the old code re-normalized per overlapping graph per tuple).
    norms: Vec<String>,
}

/// Per-component enumeration + inverted lists.
#[derive(Debug)]
struct ComponentIndex {
    /// Pattern-node indexes in this component.
    node_indexes: Vec<usize>,
    graphs: Vec<InstanceGraph>,
    /// (slot in `node_indexes`, normalized value) -> graph ids.
    inverted: HashMap<(usize, String), Vec<u32>>,
    truncated: bool,
}

/// The repair index for one (pattern, KB) pair.
#[derive(Debug)]
pub struct RepairIndex {
    components: Vec<ComponentIndex>,
    /// Columns of the pattern nodes, aligned with the pattern.
    node_columns: Vec<usize>,
}

/// One possible repair for a tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Repair {
    /// Total (weighted) repair cost.
    pub cost: f64,
    /// Proposed cell changes: `(column, new value)`. Cells already
    /// agreeing with the instance graph do not appear.
    pub changes: Vec<(usize, String)>,
}

impl RepairIndex {
    /// Enumerate all instance graphs of `pattern` in `kb` and build the
    /// inverted lists. The seed loop polls `config.deadline` once per
    /// seed entity; on expiry the index keeps only the graphs found so
    /// far.
    pub fn build(kb: &Kb, pattern: &TablePattern, config: &RepairConfig) -> Self {
        let node_columns: Vec<usize> = pattern.nodes().iter().map(|n| n.column).collect();
        let components = pattern
            .components()
            .into_iter()
            .map(|nodes| build_component(kb, pattern, nodes, config))
            .collect();
        let index = RepairIndex {
            components,
            node_columns,
        };
        config
            .recorder
            .incr_by(Counter::RepairGraphsBuilt, index.num_graphs() as u64);
        if index.truncated() {
            config.recorder.incr(Counter::RepairIndexTruncated);
        }
        index
    }

    /// True if any component hit the enumeration cap.
    pub fn truncated(&self) -> bool {
        self.components.iter().any(|c| c.truncated)
    }

    /// Total instance graphs enumerated.
    pub fn num_graphs(&self) -> usize {
        self.components.iter().map(|c| c.graphs.len()).sum()
    }
}

/// Enumerate the instance graphs of one pattern component.
fn build_component(
    kb: &Kb,
    pattern: &TablePattern,
    node_indexes: Vec<usize>,
    config: &RepairConfig,
) -> ComponentIndex {
    // Local adjacency: edges whose endpoints live in this component.
    let col_of = |ni: usize| pattern.nodes()[ni].column;
    let slot_of: HashMap<usize, usize> = node_indexes
        .iter()
        .enumerate()
        .map(|(slot, &ni)| (col_of(ni), slot))
        .collect();
    let edges: Vec<(usize, usize, PropertyId, bool)> = pattern
        .edges()
        .iter()
        .filter_map(|e| {
            let (s, o) = (slot_of.get(&e.subject)?, slot_of.get(&e.object)?);
            let obj_is_literal = pattern.nodes()[node_indexes[*o]].class.is_none();
            Some((*s, *o, e.property, obj_is_literal))
        })
        .collect();

    // Pick the seed: the typed node with the smallest entity set.
    let seed = node_indexes
        .iter()
        .enumerate()
        .filter_map(|(slot, &ni)| pattern.nodes()[ni].class.map(|c| (slot, kb.class_size(c))))
        .min_by_key(|&(_, size)| size)
        .map(|(slot, _)| slot);

    let mut walk = Walk {
        kb,
        pattern,
        node_indexes: &node_indexes,
        edges: &edges,
        values: vec![None; node_indexes.len()],
        graphs: Vec::new(),
        cap: config.max_graphs_per_component,
        truncated: false,
    };
    if let Some(seed) = seed {
        // invariant: `seed` came from the filter_map above, which only
        // yields slots whose node has `class = Some(_)`.
        let seed_class = pattern.nodes()[node_indexes[seed]]
            .class
            .expect("seed is typed");
        for &r in kb.entities_of_class(seed_class) {
            // A cancellation point per seed entity, as the repair
            // workers have one per tuple.
            if config.deadline.expired() {
                break;
            }
            walk.descend(seed, NodeVal::Res(r));
            if walk.truncated {
                break;
            }
        }
    }
    // A component with no typed node (pure literal) yields no graphs —
    // there is nothing to anchor enumeration on.
    let (mut graphs, truncated) = (walk.graphs, walk.truncated);

    let mut inverted: HashMap<(usize, String), Vec<u32>> = HashMap::new();
    for (gi, g) in graphs.iter_mut().enumerate() {
        g.norms = g
            .values
            .iter()
            .map(|v| match v {
                NodeVal::Res(r) => sim::normalize(kb.label_of(*r)),
                NodeVal::Lit(l) => sim::normalize(l),
            })
            .collect();
        for (slot, key) in g.norms.iter().enumerate() {
            inverted
                .entry((slot, key.clone()))
                .or_default()
                .push(gi as u32);
        }
    }
    ComponentIndex {
        node_indexes,
        graphs,
        inverted,
        truncated,
    }
}

/// The depth-first enumeration of one component's instance graphs.
struct Walk<'a> {
    kb: &'a Kb,
    pattern: &'a TablePattern,
    node_indexes: &'a [usize],
    /// `(subject slot, object slot, property, object is a literal)`.
    edges: &'a [(usize, usize, PropertyId, bool)],
    /// The partial assignment, one value per slot.
    values: Vec<Option<NodeVal>>,
    graphs: Vec<InstanceGraph>,
    cap: usize,
    truncated: bool,
}

impl Walk<'_> {
    /// Assign `slot`, complete the assignment along the component's
    /// edges, and unassign it again.
    fn descend(&mut self, slot: usize, value: NodeVal) {
        self.values[slot] = Some(value);
        self.expand();
        self.values[slot] = None;
    }

    /// Depth-first completion of the partial assignment.
    fn expand(&mut self) {
        if self.truncated {
            return;
        }
        let kb = self.kb;
        // Verify edges with both ends assigned; find a frontier edge, as
        // (assigned end, open end, property, literal object, forward).
        let mut frontier = None;
        for &(s, o, p, lit) in self.edges {
            match (&self.values[s], &self.values[o]) {
                (Some(NodeVal::Res(rs)), Some(NodeVal::Res(ro))) if !kb.holds(*rs, p, *ro) => {
                    return;
                }
                (Some(NodeVal::Res(rs)), Some(NodeVal::Lit(l))) if !kb.holds_literal(*rs, p, l) => {
                    return;
                }
                (Some(_), None) if frontier.is_none() => frontier = Some((s, o, p, lit, true)),
                (None, Some(_)) if frontier.is_none() && !lit => {
                    frontier = Some((o, s, p, lit, false))
                }
                _ => {}
            }
        }

        let Some((from, open, p, lit, forward)) = frontier else {
            // No expandable edge left. Complete if all nodes assigned.
            if self.values.iter().all(Option::is_some) {
                if self.graphs.len() >= self.cap {
                    self.truncated = true;
                    return;
                }
                self.graphs.push(InstanceGraph {
                    values: self.values.iter().cloned().map(Option::unwrap).collect(),
                    norms: Vec::new(), // filled by the inverted-list pass
                });
            }
            // Unassigned nodes unreachable via edges (can happen only for
            // untyped nodes hanging off unassigned subjects) — drop.
            return;
        };
        let Some(NodeVal::Res(r)) = self.values[from] else {
            return; // a literal is the subject of no fact
        };
        if lit {
            // Only forward edges reach a literal object.
            for l in kb.literals_linked(r, p) {
                self.descend(open, NodeVal::Lit(kb.literal_value(l).to_string()));
            }
            return;
        }
        let class = self.pattern.nodes()[self.node_indexes[open]].class;
        let mut linked = if forward {
            kb.objects_linked(r, p)
        } else {
            kb.subjects_linking(r, p)
        };
        linked.retain(|&x| class.is_none_or(|c| kb.has_type(x, c)));
        for x in linked {
            self.descend(open, NodeVal::Res(x));
        }
    }
}

/// Algorithm 4: top-k repairs for one tuple, least cost first.
///
/// Components with no instance graph overlapping the tuple contribute no
/// changes (their columns are left as-is); when *no* component overlaps,
/// the result is empty — KATARA has no evidence to repair from.
pub fn topk_repairs(
    index: &RepairIndex,
    kb: &Kb,
    pattern: &TablePattern,
    row: &[Value],
    k: usize,
    config: &RepairConfig,
) -> Vec<Repair> {
    topk_repairs_resolved(index, kb, pattern, row, k, config, None)
}

/// Snapshot-aware variant of [`topk_repairs`]: when `resolution` is
/// `Some((snapshot, row_idx))`, normalized tuple cells come from the
/// snapshot's string tier instead of being re-normalized here. The
/// string tier never goes stale (it depends only on the table), so this
/// is safe even after KB enrichment has bumped the KB version.
#[allow(clippy::too_many_arguments)] // topk_repairs' signature + the snapshot coordinate
pub fn topk_repairs_resolved(
    index: &RepairIndex,
    kb: &Kb,
    pattern: &TablePattern,
    row: &[Value],
    k: usize,
    config: &RepairConfig,
    resolution: Option<(&TableResolution, usize)>,
) -> Vec<Repair> {
    if k == 0 {
        return Vec::new();
    }
    assert_eq!(
        pattern.nodes().len(),
        index.node_columns.len(),
        "repair index was built for a different pattern"
    );
    let per_component = index
        .components
        .iter()
        .map(|comp| {
            let slot_norms = index.slot_norms(comp, row, resolution);
            // The graphs sharing a value with the tuple, via the inverted
            // lists.
            let mut overlap: Vec<u32> = Vec::new();
            for (slot, norm) in slot_norms.iter().enumerate() {
                let Some(norm) = norm else {
                    continue;
                };
                if let Some(gs) = comp.inverted.get(&(slot, norm.to_string())) {
                    overlap.extend_from_slice(gs);
                }
            }
            overlap.sort_unstable();
            overlap.dedup();
            let graph_ids = overlap.into_iter().map(|gi| gi as usize);
            let mut cands = index.align(kb, comp, &slot_norms, graph_ids, config);
            drop_unsupported_groups(&mut cands, config.max_alternatives_per_cell_set);
            cands
        })
        .collect();
    let (out, truncated) = combine(per_component, k);
    record_tuple(config, &out, truncated);
    out
}

impl RepairIndex {
    /// The tuple's normalized cell at each slot of `comp` (`None` for a
    /// null cell), from the snapshot's string tier when one is given.
    fn slot_norms<'a>(
        &self,
        comp: &ComponentIndex,
        row: &'a [Value],
        resolution: Option<(&'a TableResolution, usize)>,
    ) -> Vec<Option<Cow<'a, str>>> {
        comp.node_indexes
            .iter()
            .map(|&ni| {
                let col = self.node_columns[ni];
                let cell = row.get(col).and_then(Value::as_str)?;
                Some(
                    match resolution.and_then(|(res, r)| res.cell_norm(col, r)) {
                        Some(norm) => Cow::Borrowed(norm),
                        None => Cow::Owned(sim::normalize(cell)),
                    },
                )
            })
            .collect()
    }

    /// Align the tuple, given as its normalized cells per slot, with each
    /// graph of `comp` in `graph_ids`: the repair changes every cell that
    /// disagrees with the graph. Cost-sorted, one repair per change set.
    fn align(
        &self,
        kb: &Kb,
        comp: &ComponentIndex,
        slot_norms: &[Option<Cow<'_, str>>],
        graph_ids: impl Iterator<Item = usize>,
        config: &RepairConfig,
    ) -> Vec<Repair> {
        let mut cands: Vec<Repair> = graph_ids
            .map(|gi| {
                let g = &comp.graphs[gi];
                let mut cost = 0.0;
                let mut changes = Vec::new();
                for (slot, &ni) in comp.node_indexes.iter().enumerate() {
                    if slot_norms[slot].as_deref() == Some(g.norms[slot].as_str()) {
                        continue;
                    }
                    let col = self.node_columns[ni];
                    let new_val = match &g.values[slot] {
                        NodeVal::Res(r) => kb.label_of(*r).to_string(),
                        NodeVal::Lit(l) => l.clone(),
                    };
                    cost += config.column_cost(col);
                    changes.push((col, new_val));
                }
                Repair { cost, changes }
            })
            .collect();
        cands.sort_by(by_cost);
        cands.dedup_by(|a, b| a.changes == b.changes);
        cands
    }
}

/// Least cost first, ties broken by the change lists.
fn by_cost(a: &Repair, b: &Repair) -> std::cmp::Ordering {
    a.cost
        .total_cmp(&b.cost)
        .then_with(|| a.changes.cmp(&b.changes))
}

/// Combine per-component candidates additively into the k cheapest
/// repairs, diversified. A component without candidates leaves its
/// columns as they are; when no component has any, there is no evidence
/// to repair from and the result is empty. Also reports whether any list
/// was cut to fit `k` (the tuple had more evidence than asked for).
fn combine(per_component: Vec<Vec<Repair>>, k: usize) -> (Vec<Repair>, bool) {
    let mut truncated = false;
    let mut combined: Option<Vec<Repair>> = None;
    for cands in per_component.into_iter().filter(|c| !c.is_empty()) {
        truncated |= cands.len() > k;
        let comp = diversify(cands, k);
        let base = combined.unwrap_or_else(|| {
            vec![Repair {
                cost: 0.0,
                changes: Vec::new(),
            }]
        });
        let mut next = Vec::with_capacity(base.len() * comp.len());
        for b in &base {
            for cand in &comp {
                let mut changes = b.changes.clone();
                changes.extend(cand.changes.iter().cloned());
                next.push(Repair {
                    cost: b.cost + cand.cost,
                    changes,
                });
            }
        }
        next.sort_by(by_cost);
        // Keep extra headroom so the final diversification has material.
        truncated |= next.len() > k.saturating_mul(3);
        next.truncate(k.saturating_mul(3));
        combined = Some(next);
    }
    let Some(combined) = combined else {
        return (Vec::new(), truncated);
    };
    truncated |= combined.len() > k;
    (diversify(combined, k), truncated)
}

/// Export one tuple's repair outcome as run metrics. Called per tuple —
/// possibly from inside a worker — so totals are thread-count invariant.
fn record_tuple(config: &RepairConfig, repairs: &[Repair], truncated: bool) {
    let rec = &config.recorder;
    rec.observe(Histogram::RepairRepairsPerTuple, repairs.len() as u64);
    if !repairs.is_empty() {
        rec.incr(Counter::RepairTuplesRepaired);
        for r in repairs {
            rec.observe(Histogram::RepairChangesPerRepair, r.changes.len() as u64);
        }
    }
    if truncated {
        rec.incr(Counter::RepairTopkTruncations);
    }
}

/// Batch [`topk_repairs`] over many erroneous tuples, distributed across
/// `threads` workers (KGClean-style per-tuple batching — each tuple's
/// top-k is independent given the shared [`RepairIndex`]).
///
/// Returns one `(row, repairs)` entry per input row, in input order;
/// rows with no overlapping instance graph yield an empty repair list.
/// Deterministic: the result is byte-identical for every thread count,
/// and with one thread this is exactly the historical sequential walk.
#[allow(clippy::too_many_arguments)] // mirrors topk_repairs' signature + rows/threads
pub fn generate_repairs(
    index: &RepairIndex,
    kb: &Kb,
    pattern: &TablePattern,
    table: &Table,
    rows: &[usize],
    k: usize,
    config: &RepairConfig,
    threads: Threads,
) -> Vec<(usize, Vec<Repair>)> {
    generate_repairs_resolved(index, kb, pattern, table, rows, k, config, threads, None)
}

/// Snapshot-aware variant of [`generate_repairs`]: the shared
/// [`TableResolution`] (built from the same `table`) supplies normalized
/// cells for every worker. See [`topk_repairs_resolved`].
#[allow(clippy::too_many_arguments)] // mirrors generate_repairs' signature + the snapshot
pub fn generate_repairs_resolved(
    index: &RepairIndex,
    kb: &Kb,
    pattern: &TablePattern,
    table: &Table,
    rows: &[usize],
    k: usize,
    config: &RepairConfig,
    threads: Threads,
    resolution: Option<&TableResolution>,
) -> Vec<(usize, Vec<Repair>)> {
    let out = katara_exec::par_map(threads, rows, |&row| {
        // Cooperative cancellation per tuple. Workers that already
        // claimed later rows may still finish them, but the result is
        // truncated below to the contiguous completed prefix, so the
        // returned repairs are always a prefix of the undeadlined run
        // (no torn state, regardless of thread count).
        if config.deadline.expired() {
            return None;
        }
        Some((
            row,
            topk_repairs_resolved(
                index,
                kb,
                pattern,
                table.row(row),
                k,
                config,
                resolution.map(|res| (res, row)),
            ),
        ))
    });
    out.into_iter()
        .take_while(Option::is_some)
        .flatten()
        .collect()
}

/// Drop candidate groups with no evidential support: when more than
/// `max_alternatives` candidates change exactly the same column set (to
/// different values), the tuple's overlap does not determine those cells
/// and proposing any of them is a guess. The no-op candidate (empty
/// change set) is always kept.
fn drop_unsupported_groups(cands: &mut Vec<Repair>, max_alternatives: usize) {
    if max_alternatives == 0 {
        return;
    }
    let mut counts: std::collections::HashMap<Vec<usize>, usize> = std::collections::HashMap::new();
    for c in cands.iter() {
        let cols: Vec<usize> = c.changes.iter().map(|(col, _)| *col).collect();
        *counts.entry(cols).or_insert(0) += 1;
    }
    cands.retain(|c| {
        if c.changes.is_empty() {
            return true;
        }
        let cols: Vec<usize> = c.changes.iter().map(|(col, _)| *col).collect();
        counts[&cols] <= max_alternatives
    });
}

/// Diversify a cost-sorted candidate list: among equal-evidence
/// alternatives, a suggestion list serves the user better when the k
/// slots cover *different* cell sets ("which cell is wrong?") than when
/// they spell k variants of the same cell. Candidates whose
/// changed-column set is new come first (still cost-ordered — the
/// cheapest candidate overall always stays on top); duplicates of an
/// already-covered column set fill the remaining slots.
fn diversify(cands: Vec<Repair>, k: usize) -> Vec<Repair> {
    let mut seen: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
    let mut primary = Vec::new();
    let mut rest = Vec::new();
    for c in cands {
        let cols: Vec<usize> = c.changes.iter().map(|(col, _)| *col).collect();
        if seen.insert(cols) {
            primary.push(c);
        } else {
            rest.push(c);
        }
    }
    primary.extend(rest);
    primary.truncate(k);
    primary
}

/// The naive variant of Algorithm 4 ("compute the distance between `t`
/// and each graph in `G` … unfortunately, this is too slow in practice"):
/// scores *every* instance graph instead of only those sharing a value
/// with the tuple. Kept as the ablation baseline for the inverted-list
/// optimization: it aligns and combines as [`topk_repairs`] does, without
/// the ambiguity cut-off and the metrics. Results match on its overlap
/// set but may additionally surface zero-overlap (full-rewrite) repairs.
pub fn topk_repairs_naive(
    index: &RepairIndex,
    kb: &Kb,
    pattern: &TablePattern,
    row: &[Value],
    k: usize,
    config: &RepairConfig,
) -> Vec<Repair> {
    if k == 0 {
        return Vec::new();
    }
    assert_eq!(pattern.nodes().len(), index.node_columns.len());
    let per_component = index
        .components
        .iter()
        .map(|comp| {
            let slot_norms = index.slot_norms(comp, row, None);
            index.align(kb, comp, &slot_norms, 0..comp.graphs.len(), config)
        })
        .collect();
    combine(per_component, k).0
}

/// Convenience: apply a repair to a table row (used by examples/eval).
pub fn apply_repair(table: &mut Table, row: usize, repair: &Repair) {
    for (col, val) in &repair.changes {
        table.set_cell(row, *col, Value::Text(val.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PatternEdge, PatternNode, TablePattern};
    use katara_kb::KbBuilder;

    /// Figure 5's two instance graphs: Pirlo and Maxi Pereira.
    fn setting() -> (Kb, TablePattern) {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let country = b.class("country");
        let capital = b.class("capital");
        let club = b.class("club");
        let nationality = b.property("nationality");
        let has_capital = b.property("hasCapital");
        let plays_for = b.property("playsFor");

        let pirlo = b.entity("Pirlo", &[person]);
        let maxi = b.entity("Maxi Pereira", &[person]);
        let italy = b.entity("Italy", &[country]);
        let uruguay = b.entity("Uruguay", &[country]);
        let rome = b.entity("Rome", &[capital]);
        let madrid = b.entity("Madrid", &[capital]);
        let spain = b.entity("Spain", &[country]);
        let juve = b.entity("Juve", &[club]);
        let benfica = b.entity("Benfica", &[club]);
        b.fact(pirlo, nationality, italy);
        b.fact(italy, has_capital, rome);
        b.fact(pirlo, plays_for, juve);
        b.fact(maxi, nationality, uruguay);
        let montevideo = b.entity("Montevideo", &[capital]);
        b.fact(uruguay, has_capital, montevideo);
        b.fact(maxi, plays_for, benfica);
        b.fact(spain, has_capital, madrid);
        // A Spanish player so the Madrid-sharing instance graph of
        // Example 13 exists.
        let ramos = b.entity("Ramos", &[person]);
        let real = b.entity("Real", &[club]);
        b.fact(ramos, nationality, spain);
        b.fact(ramos, plays_for, real);
        let kb = b.finalize();

        let person = kb.class_by_name("person").unwrap();
        let country = kb.class_by_name("country").unwrap();
        let capital = kb.class_by_name("capital").unwrap();
        let club = kb.class_by_name("club").unwrap();
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
                PatternNode {
                    column: 3,
                    class: Some(club),
                },
            ],
            vec![
                PatternEdge {
                    subject: 0,
                    object: 1,
                    property: kb.property_by_name("nationality").unwrap(),
                },
                PatternEdge {
                    subject: 1,
                    object: 2,
                    property: kb.property_by_name("hasCapital").unwrap(),
                },
                PatternEdge {
                    subject: 0,
                    object: 3,
                    property: kb.property_by_name("playsFor").unwrap(),
                },
            ],
            1.0,
        )
        .unwrap();
        (kb, pattern)
    }

    fn row(cells: &[&str]) -> Vec<Value> {
        cells.iter().map(|&c| Value::from_cell(c)).collect()
    }

    #[test]
    fn enumerates_exactly_the_instance_graphs() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        // Exactly three complete instance graphs: Pirlo's, Maxi's and
        // Ramos's.
        assert_eq!(index.num_graphs(), 3);
        assert!(!index.truncated());
    }

    #[test]
    fn example12_top1_repairs_madrid_to_rome() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        // t3 of Fig. 1 restricted to covered columns: Madrid is wrong.
        let t3 = row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        let repairs = topk_repairs(&index, &kb, &pattern, &t3, 3, &RepairConfig::default());
        assert!(!repairs.is_empty());
        let best = &repairs[0];
        assert_eq!(best.cost, 1.0);
        assert_eq!(best.changes, vec![(2, "Rome".to_string())]);
    }

    #[test]
    fn costs_match_example13() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        let t3 = row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        let repairs = topk_repairs(&index, &kb, &pattern, &t3, 10, &RepairConfig::default());
        // Two overlapping graphs: Pirlo's (shares Pirlo/Italy/Juve,
        // cost 1) and Ramos's (shares only Madrid, cost 3). Maxi's graph
        // shares nothing with t3 and never enters the candidate set —
        // that is the inverted-list optimization at work.
        assert_eq!(repairs.len(), 2);
        assert_eq!(repairs[0].cost, 1.0);
        assert_eq!(repairs[1].cost, 3.0);
    }

    #[test]
    fn clean_tuple_has_zero_cost_top1() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        let t1 = row(&["Pirlo", "Italy", "Rome", "Juve"]);
        let repairs = topk_repairs(&index, &kb, &pattern, &t1, 3, &RepairConfig::default());
        assert_eq!(repairs[0].cost, 0.0);
        assert!(repairs[0].changes.is_empty());
    }

    #[test]
    fn no_overlap_means_no_repairs() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        let alien = row(&["Zzz", "Qqq", "Www", "Eee"]);
        let repairs = topk_repairs(&index, &kb, &pattern, &alien, 3, &RepairConfig::default());
        assert!(repairs.is_empty());
    }

    #[test]
    fn weighted_costs_change_ranking() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        // Column 2 (the capital) carries high confidence: changing it is
        // expensive. Unweighted, the Pirlo graph (one change, col 2) wins;
        // weighted, aligning to the Ramos graph — which keeps Madrid and
        // changes the three cheap columns — becomes the top repair.
        let config = RepairConfig {
            column_costs: Some(vec![0.1, 0.1, 5.0, 0.1]),
            ..RepairConfig::default()
        };
        let t3 = row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        let repairs = topk_repairs(&index, &kb, &pattern, &t3, 2, &config);
        // Ramos graph: cols 0,1,3 change → 0.3. Pirlo graph: col 2 → 5.0.
        assert_eq!(repairs[0].changes.len(), 3);
        assert!((repairs[0].cost - 0.3).abs() < 1e-9);
        assert_eq!(repairs[1].changes.len(), 1);
        assert!((repairs[1].cost - 5.0).abs() < 1e-9);
    }

    #[test]
    fn truncation_is_reported() {
        let (kb, pattern) = setting();
        let config = RepairConfig {
            max_graphs_per_component: 1,
            ..RepairConfig::default()
        };
        let index = RepairIndex::build(&kb, &pattern, &config);
        assert!(index.truncated());
        assert_eq!(index.num_graphs(), 1);
    }

    #[test]
    fn disconnected_components_combine() {
        // Pattern: (person) -nationality-> (country) plus a disconnected
        // (capital) node.
        let (kb, _) = setting();
        let person = kb.class_by_name("person").unwrap();
        let country = kb.class_by_name("country").unwrap();
        let capital = kb.class_by_name("capital").unwrap();
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
            vec![PatternEdge {
                subject: 0,
                object: 1,
                property: kb.property_by_name("nationality").unwrap(),
            }],
            1.0,
        )
        .unwrap();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        // Component 1: 3 person-country graphs. Component 2: 3 capitals.
        assert_eq!(index.num_graphs(), 3 + 3);
        let bad = row(&["Pirlo", "Uruguay", "Rome", ""]);
        let repairs = topk_repairs(&index, &kb, &pattern, &bad, 1, &RepairConfig::default());
        // Best total cost 1: one cell of component 1 changes (either
        // Uruguay→Italy or Pirlo→Maxi Pereira — a genuine tie) while the
        // capital component keeps Rome at zero cost.
        assert_eq!(repairs[0].cost, 1.0);
        assert_eq!(repairs[0].changes.len(), 1);
    }

    #[test]
    fn naive_and_indexed_agree_on_overlapping_tuples() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        let t3 = row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        let fast = topk_repairs(&index, &kb, &pattern, &t3, 2, &RepairConfig::default());
        let naive = topk_repairs_naive(&index, &kb, &pattern, &t3, 2, &RepairConfig::default());
        assert_eq!(fast[0], naive[0], "top-1 must agree");
        // Naive also works (by definition) on a zero-overlap tuple, where
        // the indexed version abstains.
        let alien = row(&["Zzz", "Qqq", "Www", "Eee"]);
        assert!(
            topk_repairs(&index, &kb, &pattern, &alien, 2, &RepairConfig::default()).is_empty()
        );
        let all = topk_repairs_naive(&index, &kb, &pattern, &alien, 2, &RepairConfig::default());
        assert!(!all.is_empty());
        assert_eq!(all[0].changes.len(), 4, "full rewrite");
    }

    /// Annotation feedback can clear a node's class and keep its edges,
    /// leaving an untyped node that is the object of one edge and the
    /// subject of another. Untyped objects are filled with literals, and
    /// a literal is the subject of no fact: the assignment is a dead end.
    #[test]
    fn literal_filled_subject_is_a_dead_end() {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let country = b.class("country");
        let capital = b.class("capital");
        let nationality = b.property("nationality");
        let has_capital = b.property("hasCapital");
        let pirlo = b.entity("Pirlo", &[person]);
        let italy = b.entity("Italy", &[country]);
        let rome = b.entity("Rome", &[capital]);
        b.entity("Madrid", &[capital]); // the larger class: person seeds
        b.fact(pirlo, nationality, italy);
        b.literal_fact(pirlo, nationality, "Italian");
        b.fact(italy, has_capital, rome);
        let kb = b.finalize();
        let node = |column, class| PatternNode { column, class };
        let edge = |subject, object, property| PatternEdge {
            subject,
            object,
            property,
        };
        let pattern = TablePattern::new(
            vec![node(0, Some(person)), node(1, None), node(2, Some(capital))],
            vec![edge(0, 1, nationality), edge(1, 2, has_capital)],
            1.0,
        )
        .unwrap();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        assert_eq!(index.num_graphs(), 0);
        assert!(!index.truncated());
    }

    #[test]
    fn apply_repair_mutates_table() {
        let (kb, pattern) = setting();
        let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
        let mut t = Table::with_opaque_columns("t", 4);
        t.push_text_row(&["Pirlo", "Italy", "Madrid", "Juve"]);
        let repairs = topk_repairs(&index, &kb, &pattern, t.row(0), 1, &RepairConfig::default());
        apply_repair(&mut t, 0, &repairs[0]);
        assert_eq!(t.cell(0, 2).as_str(), Some("Rome"));
    }
}
