//! The shared KB query snapshot: one read-only resolution of a table's
//! cell values against a KB, built once per `(table, KB)` pair and shared
//! immutably by every pipeline stage and every `katara-exec` worker.
//!
//! Every stage of KATARA — candidate discovery (§4.1), pattern matching
//! (§3.2), annotation (§6.1), repair (§6.2) — reduces to the same KB
//! primitives over cell *strings*: `candidate_resources`, `Q_types`,
//! `Q_rels`. A table with `n` cells typically has far fewer *distinct
//! normalized* values, so [`TableResolution`] deduplicates each column's
//! values, resolves each exactly once, and stores three read-only tiers:
//!
//! 1. **string tier** — per-cell value ids and normalized spellings.
//!    Pure string work, valid forever;
//! 2. **KB tier** — per-value candidate resources and `Q_types` closures;
//! 3. **pair-relation memo** — `(value, value) → Q_rels^1/Q_rels^2`
//!    results for the column-pair combinations that actually co-occur in
//!    the scanned rows, the hot path feeding the rank-join.
//!
//! ### Staleness (patched, never read stale)
//!
//! Annotation *enriches* the KB mid-run (§6.1) and later tuples must see
//! the enriched facts. The snapshot records the KB mutation counter
//! ([`Kb::version`]) its KB tiers reflect, and every KB-tier read takes
//! `&Kb` and requires the snapshot to be current for it (checked by
//! `debug_assert!`). Whoever writes to the KB brings the snapshot along
//! with [`TableResolution::apply_enrichment`], which re-resolves exactly
//! the values the writes can have affected: annotation patches its
//! copy-on-write view before a read that follows an entity write (it
//! reads only the candidate tier, which depends only on labels) and once
//! at its end, the incremental engine patches its long-lived snapshot
//! with journaled deltas. The string tier needs no guard at all. Memory
//! is bounded by the distinct-value count, not the cell count — see
//! `DESIGN.md` §5e.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use katara_kb::sim;
use katara_kb::{ClassId, DeltaOp, Kb, LabelSearchStats, PropertyId, ResourceId};
use katara_obs::{Counter, Gauge, NoopRecorder, Recorder};
use katara_table::Table;

use crate::error::KataraError;

/// One distinct normalized cell value, resolved once.
#[derive(Debug, Clone)]
struct ResolvedValue {
    /// `sim::normalize` of every raw spelling mapping to this value.
    norm: String,
    /// `Kb::candidate_resources` of the value (KB tier).
    candidates: Vec<(ResourceId, f64)>,
    /// `Q_types`: types (with superclass closure) of the candidates.
    types: Vec<ClassId>,
}

impl ResolvedValue {
    /// Resolve one normalized value against `kb`: a `candidate_resources`
    /// probe plus its `Q_types` closure, with the label-search work the
    /// probe did.
    fn resolve(kb: &Kb, norm: String) -> (Self, LabelSearchStats) {
        let (candidates, search) = kb.candidate_resources_counted(&norm);
        let types = kb.types_for_candidates(&candidates);
        let value = ResolvedValue {
            norm,
            candidates,
            types,
        };
        (value, search)
    }
}

/// `Q_rels` results for one ordered pair of distinct values.
#[derive(Debug, Clone, Default)]
pub struct PairRels {
    /// `Q_rels^1`: relationships with a resource object.
    pub res: Vec<PropertyId>,
    /// `Q_rels^2`: relationships with a literal object.
    pub lit: Vec<PropertyId>,
}

/// A read-only resolution of one table against one KB. See the module
/// docs for the tier structure and staleness contract.
#[derive(Debug, Clone)]
pub struct TableResolution {
    /// `Kb::version` at build time; KB tiers are valid while it holds.
    kb_version: u64,
    /// `Kb::num_entities` when the candidate tier was last made current.
    /// Candidates depend only on labels, and only a new entity adds one,
    /// so that tier stays valid while this holds.
    candidates_entities: usize,
    /// `cells[col][row]` → distinct-value id (None for null cells).
    cells: Vec<Vec<Option<u32>>>,
    values: Vec<ResolvedValue>,
    /// Normalized spelling → distinct-value id, persisted so streaming
    /// edits resolve only genuinely new values.
    by_norm: HashMap<String, u32>,
    /// Per-value occurrence count across all non-null cells. A value whose
    /// refcount drops to zero is evicted (tombstoned — ids are never
    /// reused, so stale pair-memo keys stay unreachable rather than
    /// aliasing).
    refcounts: Vec<usize>,
    /// `(value_a, value_b)` → prebuilt `Q_rels` results, covering every
    /// ordered column pair over the first `pair_rows` rows.
    pair_rels: HashMap<(u32, u32), PairRels>,
    /// How many leading rows the pair memo covers.
    pair_rows: usize,
    non_null_cells: usize,
    /// Label-search work of the build-time resolves, emitted as
    /// `kb.label_*` counters when a recorder is attached.
    label_search: LabelSearchStats,
    /// Sink for per-tier lookup/hit/miss counters. Defaults to
    /// [`NoopRecorder`]; attach a live one with [`Self::with_recorder`].
    recorder: Arc<dyn Recorder>,
}

impl TableResolution {
    /// Resolve `table` against `kb`. All rows are resolved for the value
    /// tiers (annotation and repair walk the whole table); the pair memo
    /// covers the first `pair_rows` rows — pass the discovery scan cap
    /// ([`crate::candidates::CandidateConfig::max_rows`]), which is the
    /// only consumer of pair relations.
    pub fn build(table: &Table, kb: &Kb, pair_rows: usize) -> Self {
        let nrows = table.num_rows();
        let ncols = table.num_columns();
        let mut by_raw: HashMap<&str, u32> = HashMap::new();
        let mut by_norm: HashMap<String, u32> = HashMap::new();
        let mut values: Vec<ResolvedValue> = Vec::new();
        let mut refcounts: Vec<usize> = Vec::new();
        let mut cells = vec![vec![None; nrows]; ncols];
        let mut non_null_cells = 0usize;
        let mut label_search = LabelSearchStats::default();
        for (c, col) in cells.iter_mut().enumerate() {
            for (r, slot) in col.iter_mut().enumerate() {
                let Some(cell) = table.cell(r, c).as_str() else {
                    continue;
                };
                non_null_cells += 1;
                let id = match by_raw.get(cell) {
                    Some(&id) => id,
                    None => {
                        let norm = sim::normalize(cell);
                        let id = match by_norm.get(&norm) {
                            Some(&id) => id,
                            None => {
                                let id = u32::try_from(values.len())
                                    .expect("distinct-value space exhausted");
                                let (value, search) = ResolvedValue::resolve(kb, norm.clone());
                                label_search += search;
                                values.push(value);
                                refcounts.push(0);
                                by_norm.insert(norm, id);
                                id
                            }
                        };
                        by_raw.insert(cell, id);
                        id
                    }
                };
                refcounts[id as usize] += 1;
                *slot = Some(id);
            }
        }

        let pair_rows = nrows.min(pair_rows);
        let mut pair_rels: HashMap<(u32, u32), PairRels> = HashMap::new();
        for i in 0..ncols {
            for j in 0..ncols {
                if i == j {
                    continue;
                }
                for (a, b) in cells[i].iter().zip(&cells[j]).take(pair_rows) {
                    let (Some(a), Some(b)) = (*a, *b) else {
                        continue;
                    };
                    pair_rels.entry((a, b)).or_insert_with(|| {
                        relations_between(kb, &values[a as usize], &values[b as usize])
                    });
                }
            }
        }

        TableResolution {
            kb_version: kb.version(),
            candidates_entities: kb.num_entities(),
            cells,
            values,
            by_norm,
            refcounts,
            pair_rels,
            pair_rows,
            non_null_cells,
            label_search,
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// Attach a recorder: subsequent tier accesses emit
    /// `resolve.{candidates,types,pair}_{lookups,hit}` and
    /// `resolve.pair_miss` counters, patches emit
    /// `resolve.values_repatched`, the build's label searches are emitted
    /// as `kb.label_*` counters, and the snapshot's shape is published as
    /// gauges.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        recorder.set_gauge(Gauge::ResolveDistinctValues, self.values.len() as u64);
        recorder.set_gauge(Gauge::ResolveNonNullCells, self.non_null_cells as u64);
        self.recorder = recorder;
        self.record_label_search(self.label_search);
        self
    }

    fn record_label_search(&self, search: LabelSearchStats) {
        self.recorder
            .incr_by(Counter::KbLabelFuzzyLookups, search.fuzzy_lookups);
        self.recorder
            .incr_by(Counter::KbLabelPostingsScanned, search.postings_scanned);
        self.recorder
            .incr_by(Counter::KbLabelCandidatesKept, search.candidates_kept);
        self.recorder
            .incr_by(Counter::KbLabelCandidatesScored, search.candidates_scored);
    }

    /// Resolve one normalized value after the build, recording its label
    /// search on the attached recorder.
    fn resolve_live(&self, kb: &Kb, norm: String) -> ResolvedValue {
        let (value, search) = ResolvedValue::resolve(kb, norm);
        self.record_label_search(search);
        value
    }

    /// `Q_rels` for `(a, b)` from the cached candidate lists.
    fn compute_pair(&self, kb: &Kb, a: u32, b: u32) -> PairRels {
        relations_between(kb, &self.values[a as usize], &self.values[b as usize])
    }

    /// True while the KB tiers reflect `kb`: no enrichment write has
    /// landed since the snapshot was built or last patched.
    pub fn is_current(&self, kb: &Kb) -> bool {
        kb.version() == self.kb_version
    }

    /// True while the candidate tier reflects `kb`: no entity has been
    /// added since the snapshot was built or last patched. Type and fact
    /// writes leave it current.
    pub(crate) fn candidates_current(&self, kb: &Kb) -> bool {
        kb.num_entities() == self.candidates_entities
    }

    /// Number of distinct normalized values across the table.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of non-null cells resolved.
    pub fn non_null_cells(&self) -> usize {
        self.non_null_cells
    }

    /// Distinct-value ratio: `num_values / non_null_cells` (1.0 for an
    /// empty table). Low ratios are where the snapshot pays off most.
    pub fn distinct_ratio(&self) -> f64 {
        if self.non_null_cells == 0 {
            1.0
        } else {
            self.values.len() as f64 / self.non_null_cells as f64
        }
    }

    /// Check that this snapshot resolves `table`: the same shape, and
    /// every cell null where the snapshot holds no value and otherwise
    /// normalizing to the value it holds. Every tier is keyed by the
    /// normalized spelling, so this holds exactly when [`Self::build`]
    /// over `table` would give the same snapshot.
    pub fn check_table(&self, table: &Table) -> Result<(), KataraError> {
        let foreign = |detail: String| Err(KataraError::ForeignSnapshot { detail });
        let rows = table.num_rows();
        if self.cells.len() != table.num_columns() || self.cells.iter().any(|c| c.len() != rows) {
            return foreign(format!(
                "snapshot has {} columns of {} rows, table {} columns of {rows} rows",
                self.cells.len(),
                self.cells.first().map_or(0, Vec::len),
                table.num_columns(),
            ));
        }
        for (c, col) in self.cells.iter().enumerate() {
            for (r, id) in col.iter().enumerate() {
                let same = match (table.cell(r, c).as_str(), id) {
                    (None, None) => true,
                    (Some(cell), Some(id)) => {
                        self.values[*id as usize].norm == sim::normalize(cell)
                    }
                    _ => false,
                };
                if !same {
                    return foreign(format!("cell ({r}, {c}) differs"));
                }
            }
        }
        Ok(())
    }

    /// How many leading rows the pair memo covers.
    pub fn pair_rows(&self) -> usize {
        self.pair_rows
    }

    /// The distinct-value id of cell `(col, row)`, `None` when null.
    pub fn value_id(&self, col: usize, row: usize) -> Option<u32> {
        self.cells.get(col)?.get(row).copied().flatten()
    }

    /// String tier: the normalized spelling of cell `(col, row)`. Never
    /// stale — normalization does not involve the KB.
    pub fn cell_norm(&self, col: usize, row: usize) -> Option<&str> {
        self.value_id(col, row)
            .map(|id| self.values[id as usize].norm.as_str())
    }

    /// The normalized spelling of a distinct-value id.
    pub fn norm_of(&self, id: u32) -> &str {
        &self.values[id as usize].norm
    }

    /// KB tier: `Kb::candidate_resources` of cell `(col, row)`; `None`
    /// for null cells. The candidate tier must be current for `kb`: no
    /// entity added since the snapshot was built or last patched.
    pub fn candidates(&self, kb: &Kb, col: usize, row: usize) -> Option<&[(ResourceId, f64)]> {
        let id = self.value_id(col, row)?;
        Some(self.candidates_of(kb, id))
    }

    /// [`Self::candidates`] by distinct-value id.
    pub fn candidates_of(&self, kb: &Kb, id: u32) -> &[(ResourceId, f64)] {
        debug_assert!(
            self.candidates_current(kb),
            "candidates read from a stale snapshot"
        );
        self.recorder.incr(Counter::ResolveCandidatesLookups);
        self.recorder.incr(Counter::ResolveCandidatesHit);
        &self.values[id as usize].candidates
    }

    /// KB tier: `Q_types` of a distinct-value id. The snapshot must be
    /// current for `kb`.
    pub fn types_of(&self, kb: &Kb, id: u32) -> &[ClassId] {
        debug_assert!(self.is_current(kb), "types read from a stale snapshot");
        self.recorder.incr(Counter::ResolveTypesLookups);
        self.recorder.incr(Counter::ResolveTypesHit);
        &self.values[id as usize].types
    }

    /// Pair memo: `Q_rels^1`/`Q_rels^2` between two distinct-value ids,
    /// borrowed from the prebuilt memo, or computed from the cached
    /// candidate lists for combinations beyond `pair_rows`. The snapshot
    /// must be current for `kb`.
    pub fn pair_relations(&self, kb: &Kb, a: u32, b: u32) -> Cow<'_, PairRels> {
        debug_assert!(
            self.is_current(kb),
            "pair relations read from a stale snapshot"
        );
        self.recorder.incr(Counter::ResolvePairLookups);
        if let Some(cached) = self.pair_rels.get(&(a, b)) {
            self.recorder.incr(Counter::ResolvePairHit);
            return Cow::Borrowed(cached);
        }
        self.recorder.incr(Counter::ResolvePairMiss);
        Cow::Owned(self.compute_pair(kb, a, b))
    }

    // ---- Delta maintenance -------------------------------------------------
    //
    // The incremental engine ([`crate::delta`]) keeps one resolution alive
    // across runs instead of rebuilding per clean. Every mutator below
    // requires the snapshot to be *current* (`is_current(kb)`): the delta
    // session patches journaled KB deltas via [`Self::apply_enrichment`]
    // before touching cells, so the cached tiers it extends are never
    // stale.

    /// Occurrence count of a distinct-value id (0 for evicted ids).
    pub fn refcount(&self, id: u32) -> usize {
        self.refcounts[id as usize]
    }

    /// Resolve `cell` to a distinct-value id, reusing the persisted
    /// norm→id map and resolving (one `candidate_resources` + `Q_types`
    /// probe) only when the normalized value is genuinely new. Returns the
    /// id and whether a new value was resolved. Does not touch refcounts.
    fn intern(&mut self, kb: &Kb, cell: &str) -> (u32, bool) {
        debug_assert!(self.is_current(kb), "intern on a stale snapshot");
        let norm = sim::normalize(cell);
        if let Some(&id) = self.by_norm.get(&norm) {
            return (id, false);
        }
        let id = u32::try_from(self.values.len()).expect("distinct-value space exhausted");
        let value = self.resolve_live(kb, norm.clone());
        self.values.push(value);
        self.refcounts.push(0);
        self.by_norm.insert(norm, id);
        (id, true)
    }

    /// Drop one reference to `id`, evicting the value when the count hits
    /// zero: its norm leaves the lookup map, its cached tiers are cleared,
    /// and every pair-memo entry naming it is reclaimed. Ids are never
    /// reused.
    fn release(&mut self, id: u32) {
        let rc = &mut self.refcounts[id as usize];
        debug_assert!(*rc > 0, "double release of value {id}");
        *rc -= 1;
        if *rc == 0 {
            let v = &mut self.values[id as usize];
            self.by_norm.remove(&v.norm);
            v.norm = String::new();
            v.candidates = Vec::new();
            v.types = Vec::new();
            self.pair_rels.retain(|&(a, b), _| a != id && b != id);
            self.recorder.incr(Counter::ResolveValuesEvicted);
        }
    }

    /// Overwrite cell `(col, row)`, returning `(old_id, new_id)`. New
    /// values are resolved, dead ones evicted; `values_resolved` is bumped
    /// in the returned flag position via [`CellPatch`].
    pub fn set_cell(&mut self, kb: &Kb, col: usize, row: usize, cell: Option<&str>) -> CellPatch {
        let old = self.cells[col][row];
        let (new, resolved) = match cell {
            Some(s) => {
                let (id, fresh) = self.intern(kb, s);
                (Some(id), fresh)
            }
            None => (None, false),
        };
        self.cells[col][row] = new;
        if let Some(n) = new {
            self.refcounts[n as usize] += 1;
        }
        if let Some(o) = old {
            self.release(o);
        }
        match (old.is_some(), new.is_some()) {
            (false, true) => self.non_null_cells += 1,
            (true, false) => self.non_null_cells -= 1,
            _ => {}
        }
        CellPatch { old, new, resolved }
    }

    /// Remove row `row` from every column, releasing its values. Mirrors
    /// [`katara_table::Table::remove_row`]; rows after it shift up by one.
    pub fn remove_row(&mut self, row: usize) {
        let mut released: Vec<u32> = Vec::new();
        for col in &mut self.cells {
            if let Some(id) = col.remove(row) {
                self.non_null_cells -= 1;
                released.push(id);
            }
        }
        for id in released {
            self.release(id);
        }
    }

    /// Append a row of cells (one per column), resolving new values.
    /// Returns how many genuinely new distinct values were resolved.
    pub fn push_row(&mut self, kb: &Kb, cells: &[Option<&str>]) -> usize {
        assert_eq!(cells.len(), self.cells.len(), "row arity mismatch");
        let mut resolved = 0usize;
        for (c, cell) in cells.iter().enumerate() {
            let slot = match cell {
                Some(s) => {
                    let (id, fresh) = self.intern(kb, s);
                    resolved += usize::from(fresh);
                    self.refcounts[id as usize] += 1;
                    self.non_null_cells += 1;
                    Some(id)
                }
                None => None,
            };
            self.cells[c].push(slot);
        }
        resolved
    }

    /// Memoize the `Q_rels` results for `(a, b)` if absent, so later
    /// re-folds hit the pair memo instead of recomputing per fold.
    pub fn ensure_pair(&mut self, kb: &Kb, a: u32, b: u32) {
        debug_assert!(self.is_current(kb), "ensure_pair on a stale snapshot");
        if !self.pair_rels.contains_key(&(a, b)) {
            let rels = self.compute_pair(kb, a, b);
            self.pair_rels.insert((a, b), rels);
        }
    }

    /// Recompute one value's KB tiers from the live KB.
    fn re_resolve(&mut self, kb: &Kb, id: u32) {
        let norm = std::mem::take(&mut self.values[id as usize].norm);
        self.values[id as usize] = self.resolve_live(kb, norm);
    }

    /// Patch the cached KB tiers for enrichment writes `kb` has already
    /// applied (a [`katara_kb::EnrichmentDelta`]'s ops, or the tail of
    /// [`Kb::captured_ops`]), re-resolving only the values the writes can
    /// have affected. This is the only way a snapshot follows the KB; the
    /// count of re-resolved values is recorded as
    /// `resolve.values_repatched`.
    ///
    /// The ops must be every write since the snapshot was last current,
    /// in order: `kb_version` is ratcheted to `kb.version()` on every
    /// call, so skipping one is unsound. Annotation patches with the
    /// capture buffer's unread tail; the serve/CLI layers replay the
    /// journal tail, one delta per call.
    ///
    /// The invalidation predicate is a *sound over-approximation*:
    ///
    /// * `Entity { label, .. }` re-resolves values whose norm equals the
    ///   new label's norm (exact-match short-circuit may flip) and values
    ///   with no exact match whose similarity to the label clears the
    ///   KB's threshold (the fuzzy candidate set grows). `sim::similarity`
    ///   is bit-identical to the label index's scoring, and the index's
    ///   trigram prefilter only ever *drops* candidates, so no affected
    ///   value escapes.
    /// * `Type { resource, .. }` re-types values whose candidate lists
    ///   contain the resource: their `Q_types` closure may grow. A type
    ///   write changes no label, so their candidates stay as they are.
    /// * `Fact`/`LiteralFact` recompute the memoized pair entries whose
    ///   subject/object candidate sets contain the fact's endpoints.
    ///
    /// Values re-resolved by the label phase also invalidate every
    /// memoized pair naming them (those entries derive from the old
    /// candidate lists). Re-typed values do not: pair relations read only
    /// candidates and normalized spellings.
    pub fn apply_enrichment(&mut self, kb: &Kb, ops: &[DeltaOp]) {
        let threshold = kb.sim_threshold();
        let live: Vec<u32> = (0..self.values.len() as u32)
            .filter(|&id| self.refcounts[id as usize] > 0)
            .collect();

        // Phase 1: new labels re-aim value→resource matching.
        let mut dirty: HashSet<u32> = HashSet::new();
        for op in ops {
            let DeltaOp::Entity { label, .. } = op else {
                continue;
            };
            let nl = sim::normalize(label);
            for &id in &live {
                if dirty.contains(&id) {
                    continue;
                }
                let norm = &self.values[id as usize].norm;
                if *norm == nl
                    || (kb.resources_by_label(norm).is_empty()
                        && sim::similarity(norm, &nl) >= threshold)
                {
                    dirty.insert(id);
                }
            }
        }
        for &id in &dirty {
            self.re_resolve(kb, id);
        }

        // Phase 2: with label-phase candidates fresh, index resource →
        // values and walk the structural ops. Only resources the ops name
        // are indexed: annotation patches before every read, so this runs
        // once per enriched row and must not cost a map of every
        // candidate of every value.
        let named: HashSet<ResourceId> = ops
            .iter()
            .flat_map(|op| match op {
                DeltaOp::Type { resource, .. } => [Some(resource), None],
                DeltaOp::Fact {
                    subject, object, ..
                } => [Some(subject), Some(object)],
                DeltaOp::LiteralFact { subject, .. } => [Some(subject), None],
                _ => [None, None],
            })
            .flatten()
            .filter_map(|name| kb.resolve_resource_name(name))
            .collect();
        let mut rev: HashMap<ResourceId, Vec<u32>> = HashMap::new();
        if !named.is_empty() {
            for &id in &live {
                for &(r, _) in &self.values[id as usize].candidates {
                    if named.contains(&r) {
                        rev.entry(r).or_default().push(id);
                    }
                }
            }
        }
        let mut type_dirty: HashSet<u32> = HashSet::new();
        let mut dirty_pairs: HashSet<(u32, u32)> = HashSet::new();
        for op in ops {
            match op {
                DeltaOp::Entity { .. } => {}
                DeltaOp::Type { resource, .. } => {
                    if let Some(rid) = kb.resolve_resource_name(resource) {
                        if let Some(ids) = rev.get(&rid) {
                            type_dirty.extend(ids.iter().copied());
                        }
                    }
                }
                DeltaOp::Fact {
                    subject, object, ..
                } => {
                    if let (Some(s), Some(o)) = (
                        kb.resolve_resource_name(subject),
                        kb.resolve_resource_name(object),
                    ) {
                        if let (Some(sa), Some(ob)) = (rev.get(&s), rev.get(&o)) {
                            for &a in sa {
                                for &b in ob {
                                    dirty_pairs.insert((a, b));
                                }
                            }
                        }
                    }
                }
                DeltaOp::LiteralFact {
                    subject, literal, ..
                } => {
                    if let Some(s) = kb.resolve_resource_name(subject) {
                        let nl = sim::normalize(literal);
                        if let (Some(sa), Some(&b)) = (rev.get(&s), self.by_norm.get(&nl)) {
                            for &a in sa {
                                dirty_pairs.insert((a, b));
                            }
                        }
                    }
                }
                // `DeltaOp` is non_exhaustive; an op kind this build does
                // not know cannot have been journaled by it either.
                _ => {}
            }
        }
        let mut retyped = 0u64;
        for &id in &type_dirty {
            if !dirty.contains(&id) {
                let v = &mut self.values[id as usize];
                v.types = kb.types_for_candidates(&v.candidates);
                retyped += 1;
            }
        }

        // Phase 3: pair entries derived from stale candidates.
        if !dirty.is_empty() {
            for &(a, b) in self.pair_rels.keys() {
                if dirty.contains(&a) || dirty.contains(&b) {
                    dirty_pairs.insert((a, b));
                }
            }
        }
        for (a, b) in dirty_pairs {
            // Uncovered pairs are computed on demand.
            if self.pair_rels.contains_key(&(a, b)) {
                let rels = self.compute_pair(kb, a, b);
                self.pair_rels.insert((a, b), rels);
            }
        }

        self.kb_version = kb.version();
        self.candidates_entities = kb.num_entities();
        self.recorder.incr_by(
            Counter::ResolveValuesRepatched,
            dirty.len() as u64 + retyped,
        );
    }
}

/// `Q_rels^1`/`Q_rels^2` between two resolved values.
fn relations_between(kb: &Kb, a: &ResolvedValue, b: &ResolvedValue) -> PairRels {
    PairRels {
        res: kb.relations_for_candidates(&a.candidates, &b.candidates),
        lit: kb.literal_relations_for_candidates(&a.candidates, &b.norm),
    }
}

/// What one cell overwrite changed in the resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPatch {
    /// The cell's previous distinct-value id (`None` if it was null).
    pub old: Option<u32>,
    /// The cell's new distinct-value id (`None` if now null).
    pub new: Option<u32>,
    /// True when the new value was genuinely new to the table and had to
    /// be resolved against the KB.
    pub resolved: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use katara_kb::KbBuilder;

    fn kb_and_table() -> (Kb, Table) {
        let mut b = KbBuilder::new();
        let country = b.class("country");
        let capital = b.class("capital");
        let person = b.class("person");
        let has_capital = b.property("hasCapital");
        let height = b.property("hasHeight");
        let italy = b.entity("Italy", &[country]);
        let rome = b.entity("Rome", &[capital]);
        let rossi = b.entity("Rossi", &[person]);
        b.fact(italy, has_capital, rome);
        b.literal_fact(rossi, height, "1.78");
        let kb = b.finalize();

        let mut t = Table::with_opaque_columns("t", 3);
        t.push_text_row(&["Italy", "Rome", ""]);
        t.push_text_row(&["  ITALY ", "Rome", "1.78"]);
        t.push_text_row(&["Rossi", "", "1.78"]);
        (kb, t)
    }

    #[test]
    fn dedup_by_normalized_value() {
        let (kb, t) = kb_and_table();
        let res = TableResolution::build(&t, &kb, usize::MAX);
        // "Italy" and "  ITALY " collapse; "" is null; distinct values:
        // italy, rome, 1.78, rossi.
        assert_eq!(res.num_values(), 4);
        assert_eq!(res.non_null_cells(), 7);
        assert_eq!(res.value_id(0, 0), res.value_id(0, 1));
        assert_eq!(res.value_id(2, 0), None);
        assert_eq!(res.cell_norm(0, 1), Some("italy"));
        assert!((res.distinct_ratio() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn cached_tiers_match_live_queries() {
        let (kb, t) = kb_and_table();
        let res = TableResolution::build(&t, &kb, usize::MAX);
        for c in 0..t.num_columns() {
            for r in 0..t.num_rows() {
                let cands = res.candidates(&kb, c, r);
                match t.cell(r, c).as_str() {
                    None => assert!(cands.is_none()),
                    Some(cell) => {
                        assert_eq!(cands.unwrap(), kb.candidate_resources(cell));
                        let id = res.value_id(c, r).unwrap();
                        assert_eq!(res.types_of(&kb, id), kb.types_of_value(cell));
                    }
                }
            }
        }
        // Pair memo matches Q_rels on every co-occurring pair.
        for r in 0..t.num_rows() {
            for i in 0..t.num_columns() {
                for j in 0..t.num_columns() {
                    if i == j {
                        continue;
                    }
                    let (Some(a), Some(b)) = (res.value_id(i, r), res.value_id(j, r)) else {
                        continue;
                    };
                    let (sa, sb) = (
                        t.cell(r, i).as_str().unwrap(),
                        t.cell(r, j).as_str().unwrap(),
                    );
                    let pr = res.pair_relations(&kb, a, b);
                    assert_eq!(pr.res, kb.relations_between_values(sa, sb));
                    assert_eq!(pr.lit, kb.relations_to_literal(sa, sb));
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale snapshot")]
    fn stale_reads_are_caught_in_debug_builds() {
        let (mut kb, t) = kb_and_table();
        let res = TableResolution::build(&t, &kb, usize::MAX);
        kb.add_entity("Pretoria", "Pretoria", &[]);
        res.candidates(&kb, 0, 0);
    }

    #[test]
    fn pair_memo_respects_row_cap() {
        let (kb, t) = kb_and_table();
        let res = TableResolution::build(&t, &kb, 1);
        assert_eq!(res.pair_rows(), 1);
        // Row 2's (Rossi, 1.78) pair is uncovered but still computed
        // correctly on demand.
        let (a, b) = (res.value_id(0, 2).unwrap(), res.value_id(2, 2).unwrap());
        let pr = res.pair_relations(&kb, a, b);
        assert_eq!(pr.lit, kb.relations_to_literal("Rossi", "1.78"));
    }

    #[test]
    fn empty_table() {
        let (kb, _) = kb_and_table();
        let t = Table::with_opaque_columns("empty", 2);
        let res = TableResolution::build(&t, &kb, 100);
        assert_eq!(res.num_values(), 0);
        assert_eq!(res.distinct_ratio(), 1.0);
        assert_eq!(res.value_id(0, 0), None);
    }

    /// Assert every KB tier of an edited resolution matches a fresh build
    /// over the edited table.
    fn assert_tiers_match(edited: &TableResolution, table: &Table, kb: &Kb) {
        let fresh = TableResolution::build(table, kb, usize::MAX);
        assert_eq!(edited.non_null_cells(), fresh.non_null_cells());
        for c in 0..table.num_columns() {
            for r in 0..table.num_rows() {
                assert_eq!(edited.cell_norm(c, r), fresh.cell_norm(c, r), "({c},{r})");
                let (Some(a), Some(b)) = (edited.value_id(c, r), fresh.value_id(c, r)) else {
                    assert_eq!(
                        edited.value_id(c, r).is_some(),
                        fresh.value_id(c, r).is_some()
                    );
                    continue;
                };
                assert_eq!(edited.candidates_of(kb, a), fresh.candidates_of(kb, b));
                assert_eq!(edited.types_of(kb, a), fresh.types_of(kb, b));
            }
        }
        // Pair tiers over every co-occurring combination.
        for r in 0..table.num_rows() {
            for i in 0..table.num_columns() {
                for j in 0..table.num_columns() {
                    if i == j {
                        continue;
                    }
                    let (Some(ea), Some(eb)) = (edited.value_id(i, r), edited.value_id(j, r))
                    else {
                        continue;
                    };
                    let (fa, fb) = (fresh.value_id(i, r).unwrap(), fresh.value_id(j, r).unwrap());
                    let ep = edited.pair_relations(kb, ea, eb);
                    let fp = fresh.pair_relations(kb, fa, fb);
                    assert_eq!(ep.res, fp.res, "pair ({i},{j}) row {r}");
                    assert_eq!(ep.lit, fp.lit, "pair ({i},{j}) row {r}");
                }
            }
        }
    }

    #[test]
    fn edits_match_fresh_build() {
        let (kb, mut t) = kb_and_table();
        let mut res = TableResolution::build(&t, &kb, usize::MAX);

        // Upsert: typo fix introduces no new value, cell remap only.
        t.set_cell(1, 0, katara_table::Value::from("Rossi".to_string()));
        let patch = res.set_cell(&kb, 0, 1, Some("Rossi"));
        assert!(!patch.resolved, "rossi already resolved");
        assert_tiers_match(&res, &t, &kb);

        // Upsert a brand-new value; the old one ("1.78" in col 2 row 1)
        // survives via row 2.
        t.set_cell(1, 2, katara_table::Value::from("2.01".to_string()));
        let patch = res.set_cell(&kb, 2, 1, Some("2.01"));
        assert!(patch.resolved);
        assert_tiers_match(&res, &t, &kb);

        // Null out a cell.
        t.set_cell(1, 1, katara_table::Value::Null);
        res.set_cell(&kb, 1, 1, None);
        assert_tiers_match(&res, &t, &kb);

        // Append a row.
        t.push_text_row(&["Italy", "Rome", ""]);
        let resolved = res.push_row(&kb, &[Some("Italy"), Some("Rome"), None]);
        assert_eq!(resolved, 0, "both values already known");
        assert_tiers_match(&res, &t, &kb);

        // Delete row 0; "2.01" (row 1 col 2) stays, row indexes shift.
        t.remove_row(0);
        res.remove_row(0);
        assert_tiers_match(&res, &t, &kb);
    }

    #[test]
    fn dead_values_are_evicted_and_norms_reusable() {
        let (kb, t) = kb_and_table();
        let mut res = TableResolution::build(&t, &kb, usize::MAX);
        let rossi = res.value_id(0, 2).unwrap();
        assert_eq!(res.refcount(rossi), 1);
        // Overwrite the only "Rossi" cell: the value dies.
        res.set_cell(&kb, 0, 2, Some("Italy"));
        assert_eq!(res.refcount(rossi), 0);
        assert_eq!(res.norm_of(rossi), "");
        // Re-introducing the spelling resolves a NEW id (never reused).
        let patch = res.set_cell(&kb, 1, 2, Some("rossi"));
        assert!(patch.resolved);
        assert_ne!(patch.new, Some(rossi));
        assert_eq!(
            res.candidates_of(&kb, patch.new.unwrap()),
            kb.candidate_resources("Rossi")
        );
    }

    #[test]
    fn enrichment_patch_matches_fresh_build() {
        let (mut kb, mut t) = kb_and_table();
        t.push_text_row(&["Pretoria", "Italy", ""]);
        let rec = Arc::new(katara_obs::RunRecorder::new());
        let mut res = TableResolution::build(&t, &kb, usize::MAX).with_recorder(rec.clone());

        // A delta that exercises every op kind: a new capital entity whose
        // label is an existing cell value (exact-match flip for the
        // "pretoria" cell), a type for it, a fact landing on a cached
        // pair, and a literal fact.
        kb.begin_delta_capture();
        let capital = kb.class_by_name("capital").unwrap();
        let has_capital = kb.property_by_name("hasCapital").unwrap();
        let height = kb.property_by_name("hasHeight").unwrap();
        let pretoria = kb.add_entity("Pretoria", "Pretoria", &[capital]);
        let italy = kb.resource_by_name("Italy").unwrap();
        kb.add_fact(italy, has_capital, pretoria);
        let rossi = kb.resource_by_name("Rossi").unwrap();
        kb.add_literal_fact(rossi, height, "1.78");
        let delta = kb.take_delta();
        assert!(!delta.is_empty());
        assert!(matches!(delta.ops[0], DeltaOp::Entity { .. }));

        assert!(!res.is_current(&kb));
        res.apply_enrichment(&kb, &delta.ops);
        assert!(res.is_current(&kb));
        let repatched = rec.counter_total(Counter::ResolveValuesRepatched);
        assert!(repatched >= 1, "pretoria must be repatched");
        assert_tiers_match(&res, &t, &kb);

        // An empty patch re-resolves nothing.
        res.apply_enrichment(&kb, &[]);
        assert_eq!(
            rec.counter_total(Counter::ResolveValuesRepatched),
            repatched
        );
    }
}
