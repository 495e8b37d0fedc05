//! Candidate type and relationship discovery (§4.1).
//!
//! For every column the candidate types of its cell values are retrieved
//! through `Q_types`, and for every ordered column pair the candidate
//! relationships through `Q_rels^1`/`Q_rels^2`; candidates are scored with
//! the paper's normalized tf-idf and returned as ranked lists — the inputs
//! to the rank-join (§4.3) and to the Support/MaxLike/PGM baselines.
//!
//! ### tf-idf
//!
//! Each cell is a query term; each candidate type `T` is a document whose
//! terms are `ENT(T)`:
//!
//! ```text
//! tf(T, cell)  = 1 / log(|ENT(T)|)      if cell has type T, else 0
//! idf(T, cell) = log(#types in K / #types of cell)   if cell is typed
//! tf-idf(T, A) = Σ_cells tf·idf, normalized to [0,1] by the column max
//! ```
//!
//! We use `1 / (1 + ln |ENT(T)|)` for the term frequency so singleton
//! types (|ENT| = 1, where `log` would divide by zero) stay finite while
//! preserving the paper's ranking intent (rarer types score higher).
//! Relationship scores are defined "similarly" (paper's wording) with
//! `subENT(P)` as the document.
//!
//! ### Canonical fold order
//!
//! Scores accumulate per *distinct normalized value* (weighted by its
//! occurrence count), folded in normalized-string order — not per row.
//! Floating-point addition is order-sensitive, so pinning the fold order
//! to a property of the value multiset (rather than row order) is what
//! lets the incremental engine ([`crate::delta`]) re-fold a column from
//! maintained counts and land on bit-identical scores.

use std::collections::HashMap;
use std::sync::Arc;

use katara_exec::{par_map_indexed, Threads};
use katara_kb::{ClassId, Kb, PropertyId};
use katara_obs::{Counter, NoopRecorder, Recorder};
use katara_table::Table;

use crate::resolve::TableResolution;

/// A candidate type for a column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeCandidate {
    /// The type.
    pub class: ClassId,
    /// Normalized tf-idf score in `[0, 1]`.
    pub tfidf: f64,
    /// Number of tuples whose cell carries this type — the Support
    /// baseline ranks by this.
    pub support: usize,
}

/// A candidate relationship for an ordered column pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelCandidate {
    /// The relationship.
    pub property: PropertyId,
    /// Normalized tf-idf score in `[0, 1]`.
    pub tfidf: f64,
    /// Number of tuples exhibiting this relationship.
    pub support: usize,
    /// True if the evidence came (at least once) from a literal object
    /// (`Q_rels^2`), e.g. `hasHeight(Rossi, "1.78")`.
    pub to_literal: bool,
}

/// Configuration for candidate discovery.
#[derive(Debug, Clone)]
pub struct CandidateConfig {
    /// Scan at most this many rows (the paper distributes candidate
    /// generation for the 316K-row Person table; we sample instead —
    /// statistics converge long before that).
    pub max_rows: usize,
    /// Drop type candidates supported by fewer than this fraction of the
    /// scanned non-null cells. Filters accidental homonym noise.
    pub min_support_fraction: f64,
    /// Drop relationship candidates below this support fraction. Higher
    /// than the type threshold: a relationship holding for only a small
    /// minority of rows (players *born in* the capital column's city) is
    /// incidental co-occurrence, not the column pair's semantics.
    /// Borderline spurious edges that survive (e.g. `hasCapital` on a
    /// generic city column with many capitals) are caught later by
    /// annotation-time pattern feedback
    /// ([`crate::annotation::AnnotationConfig::feedback_threshold`]).
    pub min_rel_support_fraction: f64,
    /// Keep at most this many candidates per ranked list.
    pub max_candidates: usize,
    /// Worker threads for the per-column / per-pair folds (the paper
    /// distributes candidate generation for the 316K-row Person table,
    /// §7.1). Every worker reads the same shared [`TableResolution`], so
    /// the output is byte-identical for every thread count.
    pub threads: Threads,
    /// Sink for `discovery.{type,rel}_probes` counters. Probes are counted
    /// per non-null cell / cell pair — the *logical* KB query sites — so
    /// totals are identical across thread counts, regardless of how many
    /// distinct values the snapshot resolved.
    pub recorder: Arc<dyn Recorder>,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            max_rows: 1000,
            min_support_fraction: 0.05,
            min_rel_support_fraction: 0.3,
            max_candidates: 12,
            threads: Threads::auto(),
            recorder: Arc::new(NoopRecorder),
        }
    }
}

/// The ranked candidate lists for one table against one KB.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateSet {
    /// Per column: candidate types, descending tf-idf (ties: fewer
    /// instances first, as in Algorithm 1's tie-break).
    pub col_types: Vec<Vec<TypeCandidate>>,
    /// Per ordered column pair `(i, j)`: candidate relationships,
    /// descending tf-idf.
    pub pair_rels: HashMap<(usize, usize), Vec<RelCandidate>>,
    /// Rows actually scanned (after `max_rows` capping).
    pub rows_scanned: usize,
}

impl CandidateSet {
    /// Candidate relationships for pair `(i, j)` (empty slice if none).
    pub fn rels(&self, i: usize, j: usize) -> &[RelCandidate] {
        static EMPTY: Vec<RelCandidate> = Vec::new();
        self.pair_rels.get(&(i, j)).unwrap_or(&EMPTY)
    }

    /// Column pairs that have at least one candidate relationship.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let mut p: Vec<(usize, usize)> = self.pair_rels.keys().copied().collect();
        p.sort_unstable();
        p
    }
}

/// Discover the ranked candidate lists for `table` against `kb`.
///
/// Builds a [`TableResolution`] snapshot (each distinct normalized cell
/// value resolved once, pair relations prememoized) and scans it with
/// [`discover_candidates_resolved`].
pub fn discover_candidates(table: &Table, kb: &Kb, config: &CandidateConfig) -> CandidateSet {
    let resolution =
        TableResolution::build(table, kb, config.max_rows).with_recorder(config.recorder.clone());
    discover_candidates_resolved(table, kb, &resolution, config)
}

/// Discovery over a prebuilt [`TableResolution`] for the same
/// `(table, kb)` pair: one count of the support within the first
/// `max_rows` rows, every list folded from it. Workers share the
/// read-only snapshot through the order-preserving `par_map_indexed`.
/// The snapshot must be current for `kb`; value pairs beyond its row cap
/// are computed from its cached candidate lists (slower, identical
/// output).
pub fn discover_candidates_resolved(
    table: &Table,
    kb: &Kb,
    resolution: &TableResolution,
    config: &CandidateConfig,
) -> CandidateSet {
    WindowCounts::discover(table, kb, resolution, config).candidate_set()
}

/// Discovery's support counts over the scan window (the first
/// `min(max_rows, num_rows)` rows), each with the ranked list it last
/// folded to. [`discover_candidates_resolved`] scans one and folds it;
/// the incremental engine ([`crate::delta`]) keeps one alive, patches it
/// per edit, and re-folds only the dirty lists.
#[derive(Debug, Clone)]
pub(crate) struct WindowCounts {
    /// Rows inside the window.
    rows: usize,
    /// Ordered column pairs, i-outer/j-inner; `pair_support[k]` belongs
    /// to `pairs[k]`.
    pairs: Vec<(usize, usize)>,
    /// Per column: occurrences of each distinct-value id.
    col_support: Vec<Support<u32, TypeCandidate>>,
    /// Per ordered pair: occurrences of each `(id, id)` combination.
    pair_support: Vec<Support<(u32, u32), RelCandidate>>,
}

/// One column's (or pair's) support counts and the list they fold to.
#[derive(Debug, Clone)]
struct Support<K, C> {
    counts: HashMap<K, usize>,
    non_null: usize,
    list: Vec<C>,
    /// `list` is stale: the counts moved or the KB changed since the fold.
    dirty: bool,
}

impl<K: Copy + Eq + std::hash::Hash, C> Support<K, C> {
    fn count(keys: impl Iterator<Item = K>) -> Self {
        let mut s = Support {
            counts: HashMap::new(),
            non_null: 0,
            list: Vec::new(),
            dirty: true,
        };
        for k in keys {
            s.shift(None, Some(k));
        }
        s
    }

    /// Move one occurrence from `old` to `new` (`None`: no key on that
    /// side). Keys leave the map at zero, so patched counts stay equal to
    /// freshly scanned ones.
    fn shift(&mut self, old: Option<K>, new: Option<K>) {
        if old == new {
            return;
        }
        if let Some(k) = old {
            match self.counts.get_mut(&k) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    let gone = self.counts.remove(&k);
                    debug_assert!(gone.is_some(), "window count underflow");
                }
            }
            self.non_null -= 1;
        }
        if let Some(k) = new {
            *self.counts.entry(k).or_insert(0) += 1;
            self.non_null += 1;
        }
        self.dirty = true;
    }
}

impl WindowCounts {
    /// Count the first `rows` rows of `resolution`; every list starts
    /// dirty.
    pub(crate) fn scan(resolution: &TableResolution, ncols: usize, rows: usize) -> Self {
        let pairs: Vec<(usize, usize)> = (0..ncols)
            .flat_map(|i| (0..ncols).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        let col_support = (0..ncols)
            .map(|c| Support::count((0..rows).filter_map(|r| resolution.value_id(c, r))))
            .collect();
        let pair_support =
            pairs
                .iter()
                .map(|&(i, j)| {
                    Support::count((0..rows).filter_map(|r| {
                        Some((resolution.value_id(i, r)?, resolution.value_id(j, r)?))
                    }))
                })
                .collect();
        WindowCounts {
            rows,
            pairs,
            col_support,
            pair_support,
        }
    }

    /// Scan the window of `table` and fold every list, recording the
    /// `discovery.{type,rel}_probes` of a full scan: one per non-null
    /// cell, one per same-row pair of non-null cells.
    pub(crate) fn discover(
        table: &Table,
        kb: &Kb,
        resolution: &TableResolution,
        config: &CandidateConfig,
    ) -> Self {
        let rows = table.num_rows().min(config.max_rows);
        let mut window = Self::scan(resolution, table.num_columns(), rows);
        window.fold(kb, resolution, config);
        let rec = config.recorder.as_ref();
        let cells = window.col_support.iter().map(|s| s.non_null as u64).sum();
        let cell_pairs = window.pair_support.iter().map(|s| s.non_null as u64).sum();
        rec.incr_by(Counter::DiscoveryTypeProbes, cells);
        rec.incr_by(Counter::DiscoveryRelProbes, cell_pairs);
        window
    }

    /// Rows inside the window.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Move one window row's contributions from the ids `old` to `new`
    /// (one per column; `None` for a row entering or leaving the window),
    /// dirtying exactly the lists whose counts moved.
    pub(crate) fn patch_row(&mut self, old: Option<&[Option<u32>]>, new: Option<&[Option<u32>]>) {
        let id = |ids: Option<&[Option<u32>]>, c: usize| ids.and_then(|ids| ids[c]);
        for (c, s) in self.col_support.iter_mut().enumerate() {
            s.shift(id(old, c), id(new, c));
        }
        for (&(i, j), s) in self.pairs.iter().zip(&mut self.pair_support) {
            let pair = |ids| Some((id(ids, i)?, id(ids, j)?));
            s.shift(pair(old), pair(new));
        }
        self.rows = self.rows + usize::from(new.is_some()) - usize::from(old.is_some());
    }

    /// Mark every list stale: the KB changed, so tf-idf inputs (class
    /// sizes, property subject counts) may have moved.
    pub(crate) fn mark_all_dirty(&mut self) {
        self.col_support.iter_mut().for_each(|s| s.dirty = true);
        self.pair_support.iter_mut().for_each(|s| s.dirty = true);
    }

    /// The value-id combinations the next [`Self::fold`] reads from the
    /// pair memo.
    pub(crate) fn dirty_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.pair_support
            .iter()
            .filter(|s| s.dirty)
            .flat_map(|s| s.counts.keys().copied())
    }

    /// Re-fold every dirty list from its counts in the canonical order
    /// (see the module docs) and return how many were folded. Pure
    /// arithmetic over the snapshot's memoized tiers — no KB probes.
    pub(crate) fn fold(
        &mut self,
        kb: &Kb,
        resolution: &TableResolution,
        config: &CandidateConfig,
    ) -> usize {
        fold_dirty(&mut self.col_support, config.threads, |s| {
            let acc = fold_types_from_counts(kb, resolution, &s.counts);
            rank_types(kb, acc, s.non_null, config)
        }) + fold_dirty(&mut self.pair_support, config.threads, |s| {
            let acc = fold_rels_from_counts(kb, resolution, &s.counts);
            rank_rels(kb, acc, s.non_null, config)
        })
    }

    /// The folded lists as a [`CandidateSet`] (pairs with no surviving
    /// candidate are omitted).
    pub(crate) fn candidate_set(&self) -> CandidateSet {
        CandidateSet {
            col_types: self.col_support.iter().map(|s| s.list.clone()).collect(),
            pair_rels: self
                .pairs
                .iter()
                .zip(&self.pair_support)
                .filter(|(_, s)| !s.list.is_empty())
                .map(|(&pair, s)| (pair, s.list.clone()))
                .collect(),
            rows_scanned: self.rows,
        }
    }
}

/// Fold the dirty entries of `slots` with `fold`, in parallel; returns
/// how many were folded.
fn fold_dirty<K: Sync, C: Send + Sync>(
    slots: &mut [Support<K, C>],
    threads: Threads,
    fold: impl Fn(&Support<K, C>) -> Vec<C> + Sync,
) -> usize {
    let dirty: Vec<usize> = (0..slots.len()).filter(|&k| slots[k].dirty).collect();
    let lists = par_map_indexed(threads, dirty.len(), |d| fold(&slots[dirty[d]]));
    for (&k, list) in dirty.iter().zip(lists) {
        slots[k].list = list;
        slots[k].dirty = false;
    }
    dirty.len()
}

/// Fold one distinct value's `Q_types` result (weighted by its occurrence
/// count) into a column's tf-idf accumulator. The caller iterates distinct
/// values in normalized-string order — the canonical fold order that
/// makes re-folding maintained counts bit-identical to a fresh scan.
fn fold_type_group(
    kb: &Kb,
    num_classes: f64,
    types: &[ClassId],
    count: usize,
    acc: &mut HashMap<ClassId, (f64, usize)>,
) {
    if types.is_empty() {
        return;
    }
    let idf = (num_classes / types.len() as f64).ln().max(0.0);
    let w = count as f64;
    for &t in types {
        let tf = 1.0 / (1.0 + (kb.class_size(t) as f64).ln());
        let e = acc.entry(t).or_insert((0.0, 0));
        e.0 += w * (tf * idf);
        e.1 += count;
    }
}

/// [`fold_type_group`]'s relationship counterpart.
fn fold_rel_group(
    kb: &Kb,
    num_props: f64,
    res: &[PropertyId],
    lit: &[PropertyId],
    count: usize,
    acc: &mut HashMap<PropertyId, (f64, usize, bool)>,
) {
    let total = res.len() + lit.len();
    if total == 0 {
        return;
    }
    let idf = (num_props / total as f64).ln().max(0.0);
    let w = count as f64;
    for (&p, is_lit) in res
        .iter()
        .map(|p| (p, false))
        .chain(lit.iter().map(|p| (p, true)))
    {
        let doc = kb.subjects_of_property(p).len();
        let tf = 1.0 / (1.0 + (doc.max(1) as f64).ln());
        let e = acc.entry(p).or_insert((0.0, 0, false));
        e.0 += w * (tf * idf);
        e.1 += count;
        e.2 |= is_lit;
    }
}

/// Canonical fold of a column's per-distinct-value occurrence counts into
/// the type tf-idf accumulator: distinct values sorted by normalized
/// string, each folded once via [`fold_type_group`].
fn fold_types_from_counts(
    kb: &Kb,
    resolution: &TableResolution,
    counts: &HashMap<u32, usize>,
) -> HashMap<ClassId, (f64, usize)> {
    let num_classes = kb.num_classes().max(1) as f64;
    let mut ids: Vec<(&str, u32, usize)> = counts
        .iter()
        .map(|(&id, &n)| (resolution.norm_of(id), id, n))
        .collect();
    ids.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut acc = HashMap::new();
    for (_, id, count) in ids {
        let types = resolution.types_of(kb, id);
        fold_type_group(kb, num_classes, types, count, &mut acc);
    }
    acc
}

/// [`fold_types_from_counts`] for an ordered column pair's per-distinct
/// value-id-pair counts, sorted by `(norm_a, norm_b)`.
fn fold_rels_from_counts(
    kb: &Kb,
    resolution: &TableResolution,
    counts: &HashMap<(u32, u32), usize>,
) -> HashMap<PropertyId, (f64, usize, bool)> {
    /// Sort key for one distinct id pair: normalized spellings first
    /// (the canonical fold order), then the ids and the pair count.
    type PairKey<'a> = ((&'a str, &'a str), (u32, u32), usize);
    let num_props = kb.num_properties().max(1) as f64;
    let mut keys: Vec<PairKey> = counts
        .iter()
        .map(|(&(a, b), &n)| ((resolution.norm_of(a), resolution.norm_of(b)), (a, b), n))
        .collect();
    keys.sort_unstable_by(|x, y| x.0.cmp(&y.0));
    let mut acc = HashMap::new();
    for (_, (a, b), count) in keys {
        let rels = resolution.pair_relations(kb, a, b);
        fold_rel_group(kb, num_props, &rels.res, &rels.lit, count, &mut acc);
    }
    acc
}

fn rank_types(
    kb: &Kb,
    acc: HashMap<ClassId, (f64, usize)>,
    non_null: usize,
    config: &CandidateConfig,
) -> Vec<TypeCandidate> {
    let min_support = min_support(non_null, config.min_support_fraction);
    let mut list: Vec<TypeCandidate> = acc
        .into_iter()
        .filter(|&(_, (_, sup))| sup >= min_support)
        .map(|(class, (raw, support))| TypeCandidate {
            class,
            tfidf: raw,
            support,
        })
        .collect();
    // Normalize by the column max.
    let max = list.iter().map(|t| t.tfidf).fold(0.0f64, f64::max);
    if max > 0.0 {
        for t in &mut list {
            t.tfidf /= max;
        }
    }
    // Descending tf-idf; ties → more discriminative (fewer instances).
    list.sort_by(|a, b| {
        b.tfidf
            .total_cmp(&a.tfidf)
            .then_with(|| kb.class_size(a.class).cmp(&kb.class_size(b.class)))
            .then_with(|| a.class.cmp(&b.class))
    });
    list.truncate(config.max_candidates);
    list
}

fn rank_rels(
    kb: &Kb,
    acc: HashMap<PropertyId, (f64, usize, bool)>,
    non_null: usize,
    config: &CandidateConfig,
) -> Vec<RelCandidate> {
    let min_support = min_support(non_null, config.min_rel_support_fraction);
    let mut list: Vec<RelCandidate> = acc
        .into_iter()
        .filter(|&(_, (_, sup, _))| sup >= min_support)
        .map(|(property, (raw, support, to_literal))| RelCandidate {
            property,
            tfidf: raw,
            support,
            to_literal,
        })
        .collect();
    let max = list.iter().map(|t| t.tfidf).fold(0.0f64, f64::max);
    if max > 0.0 {
        for t in &mut list {
            t.tfidf /= max;
        }
    }
    list.sort_by(|a, b| {
        b.tfidf
            .total_cmp(&a.tfidf)
            .then_with(|| {
                kb.subjects_of_property(a.property)
                    .len()
                    .cmp(&kb.subjects_of_property(b.property).len())
            })
            .then_with(|| a.property.cmp(&b.property))
    });
    list.truncate(config.max_candidates);
    list
}

fn min_support(non_null: usize, fraction: f64) -> usize {
    (((non_null as f64) * fraction).ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use katara_kb::{sim, KbBuilder};
    use std::collections::BTreeMap;

    /// The direct-query reference: each distinct normalized value (and
    /// value pair) is queried live against the KB — no snapshot — and
    /// folded in the canonical order.
    fn discover_candidates_direct(
        table: &Table,
        kb: &Kb,
        config: &CandidateConfig,
    ) -> CandidateSet {
        let rows = table.num_rows().min(config.max_rows);
        let ncols = table.num_columns();
        let num_classes = kb.num_classes().max(1) as f64;
        let num_props = kb.num_properties().max(1) as f64;
        let norm = |r: usize, c: usize| table.cell(r, c).as_str().map(sim::normalize);
        let col_types = (0..ncols)
            .map(|c| {
                let mut counts: BTreeMap<String, usize> = BTreeMap::new();
                for n in (0..rows).filter_map(|r| norm(r, c)) {
                    *counts.entry(n).or_insert(0) += 1;
                }
                let mut acc = HashMap::new();
                for (n, &count) in &counts {
                    fold_type_group(kb, num_classes, &kb.types_of_value(n), count, &mut acc);
                }
                rank_types(kb, acc, counts.values().sum(), config)
            })
            .collect();
        let mut pair_rels = HashMap::new();
        for (i, j) in (0..ncols).flat_map(|i| (0..ncols).map(move |j| (i, j))) {
            if i == j {
                continue;
            }
            let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
            for r in 0..rows {
                if let (Some(a), Some(b)) = (norm(r, i), norm(r, j)) {
                    *counts.entry((a, b)).or_insert(0) += 1;
                }
            }
            let mut acc = HashMap::new();
            for ((a, b), &count) in &counts {
                let res = kb.relations_between_values(a, b);
                let lit = kb.relations_to_literal(a, b);
                fold_rel_group(kb, num_props, &res, &lit, count, &mut acc);
            }
            let ranked = rank_rels(kb, acc, counts.values().sum(), config);
            if !ranked.is_empty() {
                pair_rels.insert((i, j), ranked);
            }
        }
        CandidateSet {
            col_types,
            pair_rels,
            rows_scanned: rows,
        }
    }

    /// A KB where `country` is rarer (hence more discriminative) than
    /// `place`, and two relationship kinds exist.
    fn kb_and_table() -> (Kb, Table) {
        let mut b = KbBuilder::new();
        let place = b.class("place");
        let country = b.class("country");
        let capital = b.class("capital");
        b.subclass(country, place).unwrap();
        b.subclass(capital, place).unwrap();
        let has_capital = b.property("hasCapital");

        let countries = ["Italy", "Spain", "France", "Germany"];
        let capitals = ["Rome", "Madrid", "Paris", "Berlin"];
        for (c, cap) in countries.iter().zip(capitals.iter()) {
            let rc = b.entity(c, &[country]);
            let rcap = b.entity(cap, &[capital]);
            b.fact(rc, has_capital, rcap);
        }
        // Extra places dilute `place`.
        for i in 0..20 {
            b.entity(&format!("Hamlet{i}"), &[place]);
        }
        let kb = b.finalize();

        let mut t = Table::with_opaque_columns("t", 2);
        t.push_text_row(&["Italy", "Rome"]);
        t.push_text_row(&["Spain", "Madrid"]);
        t.push_text_row(&["France", "Paris"]);
        (kb, t)
    }

    #[test]
    fn country_ranks_above_place() {
        let (kb, t) = kb_and_table();
        let cands = discover_candidates(&t, &kb, &CandidateConfig::default());
        let country = kb.class_by_name("country").unwrap();
        let place = kb.class_by_name("place").unwrap();
        let col0 = &cands.col_types[0];
        let pos = |c| col0.iter().position(|x| x.class == c);
        assert!(pos(country).unwrap() < pos(place).unwrap());
        assert!(
            (col0[0].tfidf - 1.0).abs() < 1e-12,
            "top is normalized to 1"
        );
        assert_eq!(col0[0].support, 3);
    }

    #[test]
    fn relationship_discovered_with_direction() {
        let (kb, t) = kb_and_table();
        let cands = discover_candidates(&t, &kb, &CandidateConfig::default());
        let has_capital = kb.property_by_name("hasCapital").unwrap();
        let rels = cands.rels(0, 1);
        assert_eq!(rels.len(), 1);
        assert_eq!(rels[0].property, has_capital);
        assert_eq!(rels[0].support, 3);
        assert!(!rels[0].to_literal);
        assert!(cands.rels(1, 0).is_empty(), "reverse direction is empty");
        assert_eq!(cands.pairs(), vec![(0, 1)]);
    }

    #[test]
    fn literal_relationships_flagged() {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let height = b.property("hasHeight");
        for (n, h) in [("Rossi", "1.78"), ("Klate", "1.69")] {
            let r = b.entity(n, &[person]);
            b.literal_fact(r, height, h);
        }
        let kb = b.finalize();
        let mut t = Table::with_opaque_columns("t", 2);
        t.push_text_row(&["Rossi", "1.78"]);
        t.push_text_row(&["Klate", "1.69"]);
        let cands = discover_candidates(&t, &kb, &CandidateConfig::default());
        let rels = cands.rels(0, 1);
        assert_eq!(rels.len(), 1);
        assert!(rels[0].to_literal);
        // The literal column has no type candidates.
        assert!(cands.col_types[1].is_empty());
    }

    #[test]
    fn min_support_filters_homonym_noise() {
        let mut b = KbBuilder::new();
        let country = b.class("country");
        let fruit = b.class("fruit");
        for n in ["Italy", "Spain", "France", "Germany", "Austria"] {
            b.entity(n, &[country]);
        }
        // One cell value is ALSO a fruit (homonym).
        b.entity_labeled("Italy_(fruit)", "Italy", &[fruit]);
        let kb = b.finalize();

        let mut t = Table::with_opaque_columns("t", 1);
        for n in ["Italy", "Spain", "France", "Germany", "Austria"] {
            t.push_text_row(&[n]);
        }
        let config = CandidateConfig {
            min_support_fraction: 0.3,
            ..CandidateConfig::default()
        };
        let cands = discover_candidates(&t, &kb, &config);
        let classes: Vec<ClassId> = cands.col_types[0].iter().map(|c| c.class).collect();
        assert!(classes.contains(&kb.class_by_name("country").unwrap()));
        assert!(
            !classes.contains(&kb.class_by_name("fruit").unwrap()),
            "fruit supported by 1/5 cells must be filtered at 0.3"
        );
    }

    #[test]
    fn max_rows_caps_scanning() {
        let (kb, mut t) = kb_and_table();
        for _ in 0..100 {
            t.push_text_row(&["Italy", "Rome"]);
        }
        let config = CandidateConfig {
            max_rows: 2,
            ..CandidateConfig::default()
        };
        let cands = discover_candidates(&t, &kb, &config);
        assert_eq!(cands.rows_scanned, 2);
        assert_eq!(cands.col_types[0][0].support, 2);
    }

    #[test]
    fn unknown_values_give_empty_lists() {
        let (kb, _) = kb_and_table();
        let mut t = Table::with_opaque_columns("t", 2);
        t.push_text_row(&["NotInKb1", "NotInKb2"]);
        let cands = discover_candidates(&t, &kb, &CandidateConfig::default());
        assert!(cands.col_types[0].is_empty());
        assert!(cands.col_types[1].is_empty());
        assert!(cands.pair_rels.is_empty());
    }

    /// The tentpole guarantee: candidate discovery is a pure function of
    /// (table, kb, config) — the worker count never shows in the output.
    #[test]
    fn thread_count_invariant() {
        let (kb, mut t) = kb_and_table();
        t.push_text_row(&["", "Rome"]); // degenerate cells included
        t.push_text_row(&["Italy", ""]);
        let at = |n: usize| {
            discover_candidates(
                &t,
                &kb,
                &CandidateConfig {
                    threads: Threads::fixed(n),
                    ..CandidateConfig::default()
                },
            )
        };
        let sequential = at(1);
        for n in [2, 3, 8] {
            assert_eq!(at(n), sequential, "threads={n}");
        }
    }

    /// The snapshot path and the direct-query reference must be
    /// byte-identical, including on typos, literals, and null cells.
    #[test]
    fn snapshot_path_matches_direct_path() {
        let (kb, mut t) = kb_and_table();
        t.push_text_row(&["", "Rome"]);
        t.push_text_row(&["Madird", "Itlay"]);
        t.push_text_row(&["Italy", "Rome"]);
        let config = CandidateConfig::default();
        assert_eq!(
            discover_candidates(&t, &kb, &config),
            discover_candidates_direct(&t, &kb, &config)
        );
        // A row-capped snapshot (pair memo narrower than the scan) still
        // matches because uncovered pairs are computed on demand.
        let res = crate::resolve::TableResolution::build(&t, &kb, 1);
        assert_eq!(
            discover_candidates_resolved(&t, &kb, &res, &config),
            discover_candidates_direct(&t, &kb, &config)
        );
    }

    #[test]
    fn null_cells_skipped() {
        let (kb, _) = kb_and_table();
        let mut t = Table::with_opaque_columns("t", 2);
        t.push_text_row(&["Italy", ""]);
        t.push_text_row(&["", "Rome"]);
        t.push_text_row(&["Spain", "Madrid"]);
        let cands = discover_candidates(&t, &kb, &CandidateConfig::default());
        assert_eq!(cands.col_types[0][0].support, 2);
        let rels = cands.rels(0, 1);
        assert_eq!(rels[0].support, 1, "only the (Spain, Madrid) row pairs up");
    }
}
