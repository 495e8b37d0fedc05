//! Dictionary-encoded columnar storage for the fact indexes.
//!
//! One heap allocation per entity row (`Vec<Vec<…>>`) and per fact key
//! (`HashMap<(s,o), Vec<PropertyId>>`) would cost millions of small
//! allocations at Yago scale, ~100 bytes of overhead per triple, and a
//! pointer chase per probe. `finalize` builds that row form once and
//! this module packs it into sorted columnar arenas:
//!
//! * [`CsrRows`] — dense-id rows in CSR form (one `off` array + one flat
//!   `data` arena). Backs the type closure, ENT(T)/subENT(P)/objENT(P)
//!   sets, and the out/in adjacency lists.
//! * [`PairCsr`] — the SPO permutation of the fact triples: subject-major
//!   offsets, per-subject object runs sorted by object id, and a flat
//!   property arena sliced per `(subject, object)` key. A probe is two
//!   array hops plus a binary search over the subject's (small)
//!   adjacency run — no hashing, no per-key allocation.
//! * [`NormIndex`] — the normalized-literal dictionary as a sorted key
//!   arena with CSR payload.
//! * [`SharedVec`] — a dense per-id column (resource labels) that
//!   enrichment only appends to.
//!
//! Every base arena sits behind an `Arc`, so cloning a store shares it
//! instead of copying it, and every structure carries a copy-on-write
//! *overlay* so §6.1 enrichment writes stay possible after finalize: a
//! mutated row/key is shadowed by a full private copy, base arenas are
//! never touched. A clone therefore costs the size of its overlays. Read
//! paths check the (tiny, usually empty) overlay first, so query results
//! keep their first-assertion order. A write that would not change the
//! row or key (re-asserting what it already holds) leaves it unshadowed.

use std::ops::Index;
use std::sync::Arc;

use crate::ids::{LiteralId, PropertyId, ResourceId};

/// Dense rows in compressed-sparse-row form with a copy-on-write overlay.
///
/// Rows at indexes past the base arena (entities added by enrichment) are
/// implicitly empty until written, at which point they live entirely in
/// the overlay.
#[derive(Debug, Clone)]
pub(crate) struct CsrRows<T> {
    /// The packed rows, shared by every clone.
    base: Arc<Csr<T>>,
    /// Shadow rows, sorted by row index. A present entry REPLACES the base
    /// row (it starts as a copy of it).
    overlay: Vec<(u32, Vec<T>)>,
}

/// The packed base of [`CsrRows`]: row `i` is `data[off[i]..off[i+1]]`.
#[derive(Debug)]
struct Csr<T> {
    off: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy> CsrRows<T> {
    /// Pack `rows` into CSR form.
    pub(crate) fn from_rows(rows: &[Vec<T>]) -> Self {
        let mut off = Vec::with_capacity(rows.len() + 1);
        let mut data = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        off.push(0u32);
        for row in rows {
            data.extend_from_slice(row);
            off.push(u32::try_from(data.len()).expect("CSR arena exceeds u32 offsets"));
        }
        CsrRows {
            base: Arc::new(Csr { off, data }),
            overlay: Vec::new(),
        }
    }

    /// The row at `i` (empty when never written and outside the base).
    pub(crate) fn row(&self, i: usize) -> &[T] {
        match self.overlay.binary_search_by_key(&(i as u32), |&(r, _)| r) {
            Ok(k) => &self.overlay[k].1,
            Err(_) => self.base_row(i),
        }
    }

    /// Row `i` of the base arena (empty past it).
    fn base_row(&self, i: usize) -> &[T] {
        let Csr { off, data } = &*self.base;
        if i + 1 < off.len() {
            &data[off[i] as usize..off[i + 1] as usize]
        } else {
            &[]
        }
    }

    /// Append `x` to row `i`, shadowing the base row on first write.
    pub(crate) fn push(&mut self, i: usize, x: T) {
        self.shadow_row(i).push(x);
    }

    /// Append `x` to row `i` unless already present. A duplicate leaves
    /// the row unshadowed.
    pub(crate) fn push_unique(&mut self, i: usize, x: T)
    where
        T: PartialEq,
    {
        // A linear scan of one row on the enrichment path, not the §5e
        // query-path dedup the quadratic-dedup lint polices.
        if self.row(i).contains(&x) {
            return;
        }
        self.push(i, x);
    }

    /// Membership test against a row whose BASE content is sorted (type
    /// closures, ENT sets). Overlay rows may carry an unsorted enrichment
    /// tail and are scanned linearly, matching legacy `contains` results.
    pub(crate) fn contains_sorted(&self, i: usize, x: T) -> bool
    where
        T: Ord,
    {
        match self.overlay.binary_search_by_key(&(i as u32), |&(r, _)| r) {
            Ok(k) => self.overlay[k].1.contains(&x),
            Err(_) => self.base_row(i).binary_search(&x).is_ok(),
        }
    }

    fn shadow_row(&mut self, i: usize) -> &mut Vec<T> {
        let key = i as u32;
        let k = match self.overlay.binary_search_by_key(&key, |&(r, _)| r) {
            Ok(k) => k,
            Err(k) => {
                let base = self.base_row(i).to_vec();
                self.overlay.insert(k, (key, base));
                k
            }
        };
        &mut self.overlay[k].1
    }

    #[cfg(test)]
    pub(crate) fn shares_base(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }
}

/// The SPO permutation of the fact triples, generic over the object column
/// (`ResourceId` for resource facts, `LiteralId` for literal facts), with
/// a copy-on-write overlay keyed by `(subject, object)`.
#[derive(Debug, Clone)]
pub(crate) struct PairCsr<B> {
    /// The packed permutation, shared by every clone.
    base: Arc<Pairs<B>>,
    /// Shadow keys, sorted. A present entry replaces the base key's props.
    overlay: Vec<((ResourceId, B), Vec<PropertyId>)>,
}

/// The packed base of [`PairCsr`].
#[derive(Debug)]
struct Pairs<B> {
    /// Subject-major offsets into `objs`: subject `s`'s adjacency run is
    /// `objs[off[s] .. off[s+1]]`, sorted by object id.
    off: Vec<u32>,
    objs: Vec<B>,
    /// Per-key property offsets into `props` (parallel to `objs`, len+1).
    prop_off: Vec<u32>,
    /// Properties per key in first-assertion order.
    props: Vec<PropertyId>,
}

impl<B: Copy + Ord> PairCsr<B> {
    /// Pack sorted `(key, props)` pairs. `pairs` must be sorted by key and
    /// unique; props keep their given (first-assertion) order.
    pub(crate) fn from_sorted_pairs(
        n_subjects: usize,
        pairs: &[((ResourceId, B), Vec<PropertyId>)],
    ) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        let mut off = vec![0u32; n_subjects + 1];
        let mut objs = Vec::with_capacity(pairs.len());
        let mut prop_off = Vec::with_capacity(pairs.len() + 1);
        let mut props = Vec::new();
        prop_off.push(0u32);
        for ((s, b), ps) in pairs {
            off[s.index() + 1] += 1;
            objs.push(*b);
            props.extend_from_slice(ps);
            prop_off.push(u32::try_from(props.len()).expect("property arena exceeds u32"));
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        PairCsr {
            base: Arc::new(Pairs {
                off,
                objs,
                prop_off,
                props,
            }),
            overlay: Vec::new(),
        }
    }

    /// The properties asserted for `(s, b)` (empty when the key is absent).
    pub(crate) fn get(&self, s: ResourceId, b: B) -> &[PropertyId] {
        match self.overlay.binary_search_by_key(&(s, b), |&(key, _)| key) {
            Ok(k) => &self.overlay[k].1,
            Err(_) => self.base_props(s, b),
        }
    }

    /// Subject `s`'s base adjacency run (objects sorted ascending) and the
    /// arena index of its first entry.
    pub(crate) fn adjacency(&self, s: ResourceId) -> (&[B], usize) {
        let Pairs { off, objs, .. } = &*self.base;
        let i = s.index();
        if i + 1 < off.len() {
            let lo = off[i] as usize;
            let hi = off[i + 1] as usize;
            (&objs[lo..hi], lo)
        } else {
            (&[], 0)
        }
    }

    /// The property slice of arena entry `k`.
    pub(crate) fn props_at(&self, k: usize) -> &[PropertyId] {
        let Pairs {
            prop_off, props, ..
        } = &*self.base;
        &props[prop_off[k] as usize..prop_off[k + 1] as usize]
    }

    /// Idempotently assert `p` for key `(s, b)`, shadowing the base entry
    /// on its first new assertion. Returns whether the assertion was new.
    pub(crate) fn insert(&mut self, s: ResourceId, b: B, p: PropertyId) -> bool {
        if self.get(s, b).contains(&p) {
            return false;
        }
        let k = match self.overlay.binary_search_by_key(&(s, b), |&(key, _)| key) {
            Ok(k) => k,
            Err(k) => {
                let base = self.base_props(s, b).to_vec();
                self.overlay.insert(k, ((s, b), base));
                k
            }
        };
        self.overlay[k].1.push(p);
        true
    }

    fn base_props(&self, s: ResourceId, b: B) -> &[PropertyId] {
        let (objs, base) = self.adjacency(s);
        match objs.binary_search(&b) {
            Ok(i) => self.props_at(base + i),
            Err(_) => &[],
        }
    }

    #[cfg(test)]
    pub(crate) fn shares_base(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }
}

/// The normalized-literal dictionary: sorted normalized spellings with a
/// CSR run of the literal ids spelling each of them, plus an overlay for
/// normalizations first seen during enrichment.
#[derive(Debug, Clone)]
pub(crate) struct NormIndex {
    /// The packed dictionary, shared by every clone.
    base: Arc<Norms>,
    overlay: Vec<(Box<str>, Vec<LiteralId>)>,
}

/// The packed base of [`NormIndex`]: key `i` is spelled by
/// `lids[off[i]..off[i+1]]`.
#[derive(Debug)]
struct Norms {
    keys: Vec<Box<str>>,
    off: Vec<u32>,
    lids: Vec<LiteralId>,
}

impl NormIndex {
    /// Pack sorted `(norm, lids)` pairs; lids keep their intern order.
    pub(crate) fn from_sorted(pairs: Vec<(String, Vec<LiteralId>)>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        let mut keys = Vec::with_capacity(pairs.len());
        let mut off = Vec::with_capacity(pairs.len() + 1);
        let mut lids = Vec::new();
        off.push(0u32);
        for (norm, ids) in pairs {
            keys.push(norm.into_boxed_str());
            lids.extend_from_slice(&ids);
            off.push(u32::try_from(lids.len()).expect("literal arena exceeds u32"));
        }
        NormIndex {
            base: Arc::new(Norms { keys, off, lids }),
            overlay: Vec::new(),
        }
    }

    /// The literal ids whose normalized spelling is `norm`.
    pub(crate) fn get(&self, norm: &str) -> &[LiteralId] {
        if let Ok(k) = self.overlay.binary_search_by(|(key, _)| (**key).cmp(norm)) {
            return &self.overlay[k].1;
        }
        let Norms { keys, off, lids } = &*self.base;
        match keys.binary_search_by(|key| (**key).cmp(norm)) {
            Ok(i) => &lids[off[i] as usize..off[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Record that `lid` spells `norm` (idempotent, append order). A
    /// duplicate leaves the entry unshadowed.
    pub(crate) fn insert(&mut self, norm: &str, lid: LiteralId) {
        if self.get(norm).contains(&lid) {
            return;
        }
        let k = match self.overlay.binary_search_by(|(key, _)| (**key).cmp(norm)) {
            Ok(k) => k,
            Err(k) => {
                // Not shadowed yet, so `get` reads the base's run.
                let base = self.get(norm).to_vec();
                self.overlay.insert(k, (Box::from(norm), base));
                k
            }
        };
        self.overlay[k].1.push(lid);
    }

    #[cfg(test)]
    pub(crate) fn shares_base(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }
}

/// A dense per-id column that enrichment only appends to: the elements
/// packed at finalize, shared by every clone, then the ones this clone
/// appended since.
#[derive(Debug, Clone)]
pub(crate) struct SharedVec<T> {
    base: Arc<Vec<T>>,
    added: Vec<T>,
}

impl<T> SharedVec<T> {
    /// Share `base` (moved, not copied).
    pub(crate) fn new(base: Vec<T>) -> Self {
        SharedVec {
            base: Arc::new(base),
            added: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.base.len() + self.added.len()
    }

    pub(crate) fn push(&mut self, x: T) {
        self.added.push(x);
    }

    #[cfg(test)]
    pub(crate) fn shares_base(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }
}

impl<T> Index<usize> for SharedVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match i.checked_sub(self.base.len()) {
            None => &self.base[i],
            Some(j) => &self.added[j],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u32) -> ResourceId {
        ResourceId(i)
    }
    fn pid(i: u32) -> PropertyId {
        PropertyId(i)
    }

    #[test]
    fn csr_rows_round_trip_and_overlay() {
        let rows = vec![vec![1u32, 2, 3], vec![], vec![9]];
        let mut csr = CsrRows::from_rows(&rows);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(csr.row(i), row.as_slice());
        }
        assert_eq!(csr.row(7), &[] as &[u32]);
        // A duplicate push_unique shadows nothing.
        csr.push_unique(0, 2);
        assert!(csr.overlay.is_empty());
        // Shadow a base row, then an implicit row past the base.
        csr.push(1, 42);
        csr.push_unique(0, 4);
        csr.push_unique(0, 4); // dup of an overlay entry: no change
        csr.push(5, 8);
        assert_eq!(csr.row(0), &[1, 2, 3, 4]);
        assert_eq!(csr.row(1), &[42]);
        assert_eq!(csr.row(2), &[9]); // untouched base row
        assert_eq!(csr.row(4), &[] as &[u32]);
        assert_eq!(csr.row(5), &[8]);
        assert_eq!(csr.overlay.len(), 3);
    }

    #[test]
    fn csr_contains_sorted_handles_base_and_overlay() {
        let mut csr = CsrRows::from_rows(&[vec![2u32, 5, 9]]);
        assert!(csr.contains_sorted(0, 5));
        assert!(!csr.contains_sorted(0, 4));
        assert!(!csr.contains_sorted(3, 2));
        csr.push(0, 1); // unsorted tail, like an enrichment write
        assert!(csr.contains_sorted(0, 1));
        assert!(csr.contains_sorted(0, 9));
    }

    #[test]
    fn pair_csr_probes_and_overlay_inserts() {
        // Subject 0 -> objects {2, 5}; subject 2 -> object {1}.
        let pairs = vec![
            ((rid(0), rid(2)), vec![pid(7), pid(3)]),
            ((rid(0), rid(5)), vec![pid(1)]),
            ((rid(2), rid(1)), vec![pid(0)]),
        ];
        let mut idx = PairCsr::from_sorted_pairs(3, &pairs);
        assert_eq!(idx.get(rid(0), rid(2)), &[pid(7), pid(3)]);
        assert_eq!(idx.get(rid(0), rid(5)), &[pid(1)]);
        assert_eq!(idx.get(rid(1), rid(2)), &[] as &[PropertyId]);
        assert_eq!(idx.get(rid(9), rid(2)), &[] as &[PropertyId]);
        let (adj, base) = idx.adjacency(rid(0));
        assert_eq!(adj, &[rid(2), rid(5)]);
        assert_eq!(idx.props_at(base), &[pid(7), pid(3)]);

        // Re-asserting a base entry is a no-op that shadows nothing.
        assert!(!idx.insert(rid(0), rid(5), pid(1)));
        assert!(idx.overlay.is_empty());
        // Enrichment: extend an existing key, then create a new one.
        assert!(idx.insert(rid(0), rid(2), pid(9)));
        assert!(!idx.insert(rid(0), rid(2), pid(3))); // dup
        assert!(idx.insert(rid(7), rid(7), pid(2))); // past base subjects
        assert_eq!(idx.get(rid(0), rid(2)), &[pid(7), pid(3), pid(9)]);
        assert_eq!(idx.get(rid(7), rid(7)), &[pid(2)]);
        // Untouched keys still resolve from the base.
        assert_eq!(idx.get(rid(2), rid(1)), &[pid(0)]);
        assert_eq!(idx.get(rid(0), rid(5)), &[pid(1)]);
        assert_eq!(idx.overlay.len(), 2);
    }

    #[test]
    fn norm_index_get_and_insert() {
        let lid = LiteralId;
        let mut idx = NormIndex::from_sorted(vec![
            ("1.78".to_string(), vec![lid(0), lid(2)]),
            ("rome".to_string(), vec![lid(1)]),
        ]);
        assert_eq!(idx.get("1.78"), &[lid(0), lid(2)]);
        assert_eq!(idx.get("rome"), &[lid(1)]);
        assert_eq!(idx.get("paris"), &[] as &[LiteralId]);
        idx.insert("1.78", lid(2)); // dup of a base entry: shadows nothing
        assert!(idx.overlay.is_empty());
        idx.insert("rome", lid(5));
        idx.insert("rome", lid(5)); // dup
        idx.insert("paris", lid(3));
        assert_eq!(idx.get("rome"), &[lid(1), lid(5)]);
        assert_eq!(idx.get("paris"), &[lid(3)]);
        assert_eq!(idx.get("1.78"), &[lid(0), lid(2)]);
        assert_eq!(idx.overlay.len(), 2);
    }
}
