//! Class and property hierarchies (`subClassOf` / `subPropertyOf`).
//!
//! A [`Hierarchy`] is a DAG over dense `u32` node indexes with parent edges.
//! KATARA needs three operations, all of which are answered from a
//! transitive closure precomputed when the KB is finalized:
//!
//! * *is-a*: is `a` equal to or a (transitive) descendant of `b`? — used by
//!   the pattern match semantics (§3.2, conditions 2–3);
//! * *ancestors with distance*: every (strict) ancestor of `a` together with
//!   the minimal number of edges to reach it — used by `Q_types`
//!   (`rdfs:type/rdfs:subClassOf*`) and by the evaluation's supertype
//!   partial credit `1/(s+1)` (§7.1);
//! * *distance*: the minimal step count from `a` up to `b`.

use std::collections::HashMap;

use crate::error::KbError;

/// A DAG of `subClassOf`-style edges over dense node indexes, with a
/// precomputed ancestor closure stored CSR-style: one flat arena of
/// `(ancestor, dist)` pairs plus per-node offsets. Each node's slice is
/// sorted by ancestor id, so membership and distance are binary searches
/// and enumeration is deterministic (ascending by ancestor) — the old
/// per-node `HashMap` enumerated in hash order, which varied per process.
#[derive(Debug, Default, Clone)]
pub struct Hierarchy {
    /// `parents[n]` = direct parents of node `n`.
    parents: Vec<Vec<u32>>,
    /// Node `n`'s strict ancestors are
    /// `closure_data[closure_off[n]..closure_off[n + 1]]`, sorted by
    /// ancestor id. Rebuilt by [`Hierarchy::rebuild_closure`].
    closure_off: Vec<usize>,
    closure_data: Vec<(u32, u32)>,
    closure_dirty: bool,
}

impl Hierarchy {
    /// An empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure node `n` exists (nodes are dense, so this grows the arena).
    pub fn ensure_node(&mut self, n: u32) {
        let need = n as usize + 1;
        if self.parents.len() < need {
            self.parents.resize_with(need, Vec::new);
            self.closure_dirty = true;
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True if the hierarchy has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Declare `child subXOf parent`. Returns an error if this would create
    /// a cycle: [`KbError::SelfLoop`] for a trivial `n subXOf n`,
    /// [`KbError::HierarchyCycle`] (carrying the rejected edge) when the
    /// edge would close a longer cycle. Either way the hierarchy is left
    /// unchanged, so a lenient caller can record the dropped edge and
    /// continue — the audit pass in [`crate::builder::KbBuilder`] does
    /// exactly that.
    pub fn add_edge(&mut self, child: u32, parent: u32, kind: &'static str) -> Result<(), KbError> {
        if child == parent {
            return Err(KbError::SelfLoop { kind, node: child });
        }
        self.ensure_node(child.max(parent));
        // Reject if `child` is already an ancestor of `parent`: adding the
        // edge would close the cycle, so the edge itself is what we report.
        if self.reaches(parent, child) {
            return Err(KbError::HierarchyCycle {
                kind,
                child,
                parent,
            });
        }
        if !self.parents[child as usize].contains(&parent) {
            self.parents[child as usize].push(parent);
            self.closure_dirty = true;
        }
        Ok(())
    }

    /// Direct parents of `n` (empty slice for roots and unknown nodes).
    pub fn direct_parents(&self, n: u32) -> &[u32] {
        self.parents
            .get(n as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// BFS reachability over parent edges, used during construction (before
    /// the closure exists) for cycle checks.
    fn reaches(&self, from: u32, to: u32) -> bool {
        if from as usize >= self.parents.len() {
            return false;
        }
        let mut stack = vec![from];
        let mut seen = vec![false; self.parents.len()];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if std::mem::replace(&mut seen[n as usize], true) {
                continue;
            }
            stack.extend_from_slice(&self.parents[n as usize]);
        }
        false
    }

    /// Recompute the ancestor closure. Must be called after the last
    /// `add_edge` and before any query; [`crate::builder::KbBuilder`] does
    /// this in `finalize`.
    pub fn rebuild_closure(&mut self) {
        self.closure_off = Vec::with_capacity(self.parents.len() + 1);
        self.closure_data.clear();
        self.closure_off.push(0);
        let mut dist: HashMap<u32, u32> = HashMap::new();
        for n in 0..self.parents.len() {
            dist.clear();
            // BFS upward from n.
            let mut frontier: Vec<u32> = self.parents[n].clone();
            let mut d = 1u32;
            let mut next = Vec::new();
            while !frontier.is_empty() {
                for &p in &frontier {
                    if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(p) {
                        e.insert(d);
                        next.extend_from_slice(&self.parents[p as usize]);
                    }
                }
                frontier.clear();
                std::mem::swap(&mut frontier, &mut next);
                d += 1;
            }
            let start = self.closure_data.len();
            self.closure_data
                .extend(dist.iter().map(|(&p, &dd)| (p, dd)));
            self.closure_data[start..].sort_unstable_by_key(|&(p, _)| p);
            self.closure_off.push(self.closure_data.len());
        }
        self.closure_dirty = false;
    }

    fn assert_closed(&self) {
        debug_assert!(
            !self.closure_dirty,
            "hierarchy queried before rebuild_closure()"
        );
    }

    /// Node `a`'s closure slice, empty for unknown nodes or when the
    /// closure has not been rebuilt since the node was added.
    fn closure_slice(&self, a: u32) -> &[(u32, u32)] {
        let a = a as usize;
        if a + 1 < self.closure_off.len() {
            &self.closure_data[self.closure_off[a]..self.closure_off[a + 1]]
        } else {
            &[]
        }
    }

    /// True iff `a == b` or `b` is a transitive ancestor of `a`.
    pub fn is_a(&self, a: u32, b: u32) -> bool {
        self.assert_closed();
        a == b
            || self
                .closure_slice(a)
                .binary_search_by_key(&b, |&(p, _)| p)
                .is_ok()
    }

    /// Minimal number of edges from `a` up to `b`; `Some(0)` if equal,
    /// `None` if `b` is not an ancestor.
    pub fn distance(&self, a: u32, b: u32) -> Option<u32> {
        self.assert_closed();
        if a == b {
            return Some(0);
        }
        let slice = self.closure_slice(a);
        slice
            .binary_search_by_key(&b, |&(p, _)| p)
            .ok()
            .map(|i| slice[i].1)
    }

    /// All strict ancestors of `a` with their minimal distances, in
    /// ascending ancestor-id order.
    pub fn ancestors(&self, a: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ancestors_slice(a).iter().copied()
    }

    /// [`Self::ancestors`] as a borrowed slice (sorted by ancestor id) —
    /// the zero-cost form the query layer merges from.
    pub fn ancestors_slice(&self, a: u32) -> &[(u32, u32)] {
        self.assert_closed();
        self.closure_slice(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(edges: &[(u32, u32)]) -> Hierarchy {
        let mut h = Hierarchy::new();
        for &(c, p) in edges {
            h.add_edge(c, p, "test").unwrap();
        }
        h.rebuild_closure();
        h
    }

    #[test]
    fn single_edge_is_a() {
        // capital(0) subClassOf location(1)
        let h = h(&[(0, 1)]);
        assert!(h.is_a(0, 1));
        assert!(h.is_a(0, 0));
        assert!(!h.is_a(1, 0));
        assert_eq!(h.distance(0, 1), Some(1));
        assert_eq!(h.distance(0, 0), Some(0));
        assert_eq!(h.distance(1, 0), None);
    }

    #[test]
    fn transitive_chain_with_distance() {
        // 0 -> 1 -> 2 -> 3
        let h = h(&[(0, 1), (1, 2), (2, 3)]);
        assert!(h.is_a(0, 3));
        assert_eq!(h.distance(0, 3), Some(3));
        assert_eq!(h.distance(0, 2), Some(2));
        assert_eq!(h.distance(1, 3), Some(2));
    }

    #[test]
    fn diamond_takes_min_distance() {
        // 0 -> {1, 2}, 1 -> 3, 2 -> 3, and also 0 -> 3 directly.
        let h = h(&[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]);
        assert_eq!(h.distance(0, 3), Some(1));
    }

    #[test]
    fn cycles_rejected() {
        let mut h = Hierarchy::new();
        h.add_edge(0, 1, "subClassOf").unwrap();
        h.add_edge(1, 2, "subClassOf").unwrap();
        let err = h.add_edge(2, 0, "subClassOf").unwrap_err();
        // The error names the exact edge that would have closed the cycle.
        assert!(matches!(
            err,
            KbError::HierarchyCycle {
                child: 2,
                parent: 0,
                ..
            }
        ));
        // A self-edge is a distinct, trivial kind of cycle.
        let err = h.add_edge(5, 5, "subClassOf").unwrap_err();
        assert!(matches!(err, KbError::SelfLoop { node: 5, .. }));
        // Rejection leaves the hierarchy untouched.
        assert!(h.direct_parents(2).is_empty());
    }

    #[test]
    fn duplicate_edges_are_deduped() {
        let mut h = Hierarchy::new();
        h.add_edge(0, 1, "t").unwrap();
        h.add_edge(0, 1, "t").unwrap();
        assert_eq!(h.direct_parents(0), &[1]);
    }

    #[test]
    fn ancestors_enumerates_all() {
        let h = h(&[(0, 1), (1, 2)]);
        let mut anc: Vec<(u32, u32)> = h.ancestors(0).collect();
        anc.sort_unstable();
        assert_eq!(anc, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn ancestors_are_sorted_by_id() {
        // 0 -> {5, 2}, 2 -> 9: insertion order is scrambled but the CSR
        // closure enumerates ascending by ancestor id, deterministically.
        let h = h(&[(0, 5), (0, 2), (2, 9)]);
        let anc: Vec<(u32, u32)> = h.ancestors(0).collect();
        assert_eq!(anc, vec![(2, 1), (5, 1), (9, 2)]);
        assert_eq!(h.ancestors_slice(0), &[(2, 1), (5, 1), (9, 2)]);
    }

    #[test]
    fn unknown_nodes_are_roots() {
        let h = h(&[(0, 1)]);
        assert!(h.is_a(1, 1));
        assert!(h.ancestors(1).next().is_none());
        assert!(h.direct_parents(99).is_empty());
    }
}
