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
//!   array hops plus a binary/gallop search over the subject's (small)
//!   adjacency run — no hashing, no per-key allocation.
//! * [`NormIndex`] — the normalized-literal dictionary as a sorted key
//!   arena with CSR payload.
//!
//! Every structure carries a copy-on-write *overlay* so §6.1 enrichment
//! writes stay possible after finalize: a mutated row/key is shadowed by a
//! full private copy, base arenas are never touched. Read paths check the
//! (tiny, usually empty) overlay first, so query results keep their
//! first-assertion order. A write that would not change the row or key
//! (re-asserting what it already holds) leaves it unshadowed.

use crate::ids::{LiteralId, PropertyId, ResourceId};

/// Gallop (exponential-then-binary) search for `target` in a sorted slice:
/// `Ok(i)` at a matching index, `Err(i)` at the insertion point. Probes
/// doubling strides from the front, then binary-searches the bracketed
/// window — O(log d) where d is the match distance, which beats a plain
/// binary search when the target sits near the cursor (the common case in
/// merge joins over skewed adjacency runs).
pub(crate) fn gallop_search<T: Ord>(slice: &[T], target: &T) -> Result<usize, usize> {
    let mut hi = 1usize;
    while hi < slice.len() && slice[hi - 1] < *target {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(slice.len());
    match slice[lo..hi].binary_search(target) {
        Ok(i) => Ok(lo + i),
        Err(i) => Err(lo + i),
    }
}

/// [`gallop_search`] under a key projection: search a slice sorted by
/// `key(elem)` for `target`. Lets the hierarchy closures (sorted
/// `(ancestor, distance)` runs) share the probe primitive without
/// materializing a key column.
pub(crate) fn gallop_search_by_key<T, K: Ord>(
    slice: &[T],
    target: &K,
    key: impl Fn(&T) -> K,
) -> Result<usize, usize> {
    let mut hi = 1usize;
    while hi < slice.len() && key(&slice[hi - 1]) < *target {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(slice.len());
    match slice[lo..hi].binary_search_by(|e| key(e).cmp(target)) {
        Ok(i) => Ok(lo + i),
        Err(i) => Err(lo + i),
    }
}

/// Dense rows in compressed-sparse-row form with a copy-on-write overlay.
///
/// Rows at indexes past the base arena (entities added by enrichment) are
/// implicitly empty until written, at which point they live entirely in
/// the overlay.
#[derive(Debug, Clone, Default)]
pub(crate) struct CsrRows<T> {
    off: Vec<u32>,
    data: Vec<T>,
    /// Shadow rows, sorted by row index. A present entry REPLACES the base
    /// row (it starts as a copy of it).
    overlay: Vec<(u32, Vec<T>)>,
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
            off,
            data,
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
        if i + 1 < self.off.len() {
            &self.data[self.off[i] as usize..self.off[i + 1] as usize]
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
            Err(_) => gallop_search(self.base_row(i), &x).is_ok(),
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
}

/// The SPO permutation of the fact triples, generic over the object column
/// (`ResourceId` for resource facts, `LiteralId` for literal facts), with
/// a copy-on-write overlay keyed by `(subject, object)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairCsr<B> {
    /// Subject-major offsets into `objs`: subject `s`'s adjacency run is
    /// `objs[off[s] .. off[s+1]]`, sorted by object id.
    off: Vec<u32>,
    objs: Vec<B>,
    /// Per-key property offsets into `props` (parallel to `objs`, len+1).
    prop_off: Vec<u32>,
    /// Properties per key in first-assertion order.
    props: Vec<PropertyId>,
    /// Shadow keys, sorted. A present entry replaces the base key's props.
    overlay: Vec<((ResourceId, B), Vec<PropertyId>)>,
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
            off,
            objs,
            prop_off,
            props,
            overlay: Vec::new(),
        }
    }

    /// Number of distinct `(subject, object)` keys in the base arena.
    pub(crate) fn num_pairs(&self) -> usize {
        self.objs.len()
    }

    /// Number of subjects with at least one base key.
    pub(crate) fn num_subjects_with_pairs(&self) -> usize {
        self.off.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Whether any enrichment write has shadowed a key. While true, merge
    /// joins over base adjacency runs would miss overlay-only keys, so the
    /// probe planner must fall back to per-key probes.
    pub(crate) fn has_overlay(&self) -> bool {
        !self.overlay.is_empty()
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
        let i = s.index();
        if i + 1 < self.off.len() {
            let lo = self.off[i] as usize;
            let hi = self.off[i + 1] as usize;
            (&self.objs[lo..hi], lo)
        } else {
            (&[], 0)
        }
    }

    /// The property slice of arena entry `k`.
    pub(crate) fn props_at(&self, k: usize) -> &[PropertyId] {
        &self.props[self.prop_off[k] as usize..self.prop_off[k + 1] as usize]
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
}

/// The normalized-literal dictionary: sorted normalized spellings with a
/// CSR run of the literal ids spelling each of them, plus an overlay for
/// normalizations first seen during enrichment.
#[derive(Debug, Clone, Default)]
pub(crate) struct NormIndex {
    keys: Vec<Box<str>>,
    off: Vec<u32>,
    lids: Vec<LiteralId>,
    overlay: Vec<(Box<str>, Vec<LiteralId>)>,
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
            keys,
            off,
            lids,
            overlay: Vec::new(),
        }
    }

    /// The literal ids whose normalized spelling is `norm`.
    pub(crate) fn get(&self, norm: &str) -> &[LiteralId] {
        if let Ok(k) = self.overlay.binary_search_by(|(key, _)| (**key).cmp(norm)) {
            return &self.overlay[k].1;
        }
        match self.keys.binary_search_by(|key| (**key).cmp(norm)) {
            Ok(i) => &self.lids[self.off[i] as usize..self.off[i + 1] as usize],
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
                let base: Vec<LiteralId> = match self.keys.binary_search_by(|key| (**key).cmp(norm))
                {
                    Ok(i) => self.lids[self.off[i] as usize..self.off[i + 1] as usize].to_vec(),
                    Err(_) => Vec::new(),
                };
                self.overlay.insert(k, (Box::from(norm), base));
                k
            }
        };
        self.overlay[k].1.push(lid);
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
    fn gallop_matches_binary_search() {
        let xs: Vec<u32> = vec![1, 3, 3, 7, 9, 20, 21, 22, 40];
        for t in 0..45u32 {
            let g = gallop_search(&xs, &t);
            match (g, xs.binary_search(&t)) {
                (Ok(i), Ok(_)) => assert_eq!(xs[i], t),
                (Err(i), Err(j)) => assert_eq!(i, j, "insertion point for {t}"),
                other => panic!("gallop/binary disagree for {t}: {other:?}"),
            }
        }
        assert_eq!(gallop_search::<u32>(&[], &5), Err(0));
    }

    #[test]
    fn gallop_by_key_matches_plain_gallop() {
        let pairs: Vec<(u32, u32)> = vec![(2, 1), (5, 1), (9, 2), (12, 3), (30, 1)];
        let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
        for t in 0..35u32 {
            assert_eq!(
                gallop_search_by_key(&pairs, &t, |&(k, _)| k),
                gallop_search(&keys, &t),
                "projected search for {t}"
            );
        }
        assert_eq!(
            gallop_search_by_key::<(u32, u32), u32>(&[], &5, |&(k, _)| k),
            Err(0)
        );
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
        assert_eq!(idx.num_pairs(), 3);
        assert_eq!(idx.num_subjects_with_pairs(), 2);
        assert_eq!(idx.get(rid(0), rid(2)), &[pid(7), pid(3)]);
        assert_eq!(idx.get(rid(0), rid(5)), &[pid(1)]);
        assert_eq!(idx.get(rid(1), rid(2)), &[] as &[PropertyId]);
        assert_eq!(idx.get(rid(9), rid(2)), &[] as &[PropertyId]);
        let (adj, base) = idx.adjacency(rid(0));
        assert_eq!(adj, &[rid(2), rid(5)]);
        assert_eq!(idx.props_at(base), &[pid(7), pid(3)]);

        // Re-asserting a base entry is a no-op that shadows nothing.
        assert!(!idx.insert(rid(0), rid(5), pid(1)));
        assert!(!idx.has_overlay());
        // Enrichment: extend an existing key, then create a new one.
        assert!(idx.insert(rid(0), rid(2), pid(9)));
        assert!(!idx.insert(rid(0), rid(2), pid(3))); // dup
        assert!(idx.insert(rid(7), rid(7), pid(2))); // past base subjects
        assert!(idx.has_overlay());
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
