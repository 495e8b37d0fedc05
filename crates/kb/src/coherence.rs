//! Semantic coherence scores (§4.2).
//!
//! `subSC(T, P)` measures how likely an entity of type `T` appears as the
//! *subject* of property `P`; `objSC(T, P)` likewise for the *object*
//! position. Both are derived from pointwise mutual information:
//!
//! ```text
//! PMI_sub(T, P)  = log( Pr_sub(P ∩ T) / (Pr_sub(P) · Pr(T)) )
//! NPMI_sub(T, P) = PMI_sub(T, P) / (-log Pr_sub(P ∩ T))      (Bouma 2009)
//! subSC(T, P)    = (NPMI_sub(T, P) + 1) / 2                   ∈ [0, 1]
//! ```
//!
//! Note: the paper's NPMI formula as printed divides by `-Pr_sub(P ∩ T)`;
//! we follow the normalization of the cited source (Bouma 2009), which
//! divides by `-log Pr_sub(P ∩ T)` and is the only reading that lands in
//! `[-1, 1]` as the paper asserts.
//!
//! As in the paper ("we compute offline the coherence score for every type
//! and every relationship"), the table is built once at KB finalization,
//! along with the per-property maxima that the rank-join upper bound `B`
//! (§4.3) needs.

use std::collections::HashMap;

use crate::ids::{ClassId, PropertyId, ResourceId};

/// Precomputed coherence scores for every (type, property) pair with a
/// non-empty intersection, plus per-property maxima.
#[derive(Debug, Default, Clone)]
pub struct CoherenceTable {
    sub: HashMap<(ClassId, PropertyId), f64>,
    obj: HashMap<(ClassId, PropertyId), f64>,
    max_sub: Vec<f64>,
    max_obj: Vec<f64>,
}

impl CoherenceTable {
    /// subSC(t, p); 0.0 when the intersection is empty.
    pub fn sub(&self, t: ClassId, p: PropertyId) -> f64 {
        self.sub.get(&(t, p)).copied().unwrap_or(0.0)
    }

    /// objSC(t, p); 0.0 when the intersection is empty.
    pub fn obj(&self, t: ClassId, p: PropertyId) -> f64 {
        self.obj.get(&(t, p)).copied().unwrap_or(0.0)
    }

    /// max over all types T of subSC(T, p) — rank-join bound ingredient.
    pub fn max_sub(&self, p: PropertyId) -> f64 {
        self.max_sub.get(p.index()).copied().unwrap_or(0.0)
    }

    /// max over all types T of objSC(T, p).
    pub fn max_obj(&self, p: PropertyId) -> f64 {
        self.max_obj.get(p.index()).copied().unwrap_or(0.0)
    }

    /// Number of stored (type, property) subject-position entries.
    pub fn len_sub(&self) -> usize {
        self.sub.len()
    }

    /// Build the table.
    ///
    /// * `n` — total entity count `N`;
    /// * `num_props` — size of the property id space;
    /// * `types_closure` — per resource, its types incl. superclasses;
    /// * `prop_subjects` / `prop_objects` — subENT / objENT per property;
    /// * `class_sizes` — |ENT(T)| per class.
    pub fn build(
        n: usize,
        num_props: usize,
        types_closure: &[Vec<ClassId>],
        prop_subjects: &[Vec<ResourceId>],
        prop_objects: &[Vec<ResourceId>],
        class_sizes: &[usize],
    ) -> Self {
        let mut table = CoherenceTable {
            sub: HashMap::new(),
            obj: HashMap::new(),
            max_sub: vec![0.0; num_props],
            max_obj: vec![0.0; num_props],
        };
        if n == 0 {
            return table;
        }
        for side in 0..2 {
            let per_prop = if side == 0 {
                prop_subjects
            } else {
                prop_objects
            };
            for (pi, members) in per_prop.iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                let p = PropertyId::from_index(pi);
                // Count |ENT(T) ∩ {sub,obj}ENT(P)| by iterating members.
                let mut inter: HashMap<ClassId, usize> = HashMap::new();
                for &r in members {
                    for &t in &types_closure[r.index()] {
                        *inter.entry(t).or_insert(0) += 1;
                    }
                }
                let pr_p = members.len() as f64 / n as f64;
                for (t, cnt) in inter {
                    let pr_t = class_sizes[t.index()] as f64 / n as f64;
                    let pr_joint = cnt as f64 / n as f64;
                    let sc = coherence_from_probs(pr_joint, pr_p, pr_t);
                    if side == 0 {
                        if sc > table.max_sub[pi] {
                            table.max_sub[pi] = sc;
                        }
                        table.sub.insert((t, p), sc);
                    } else {
                        if sc > table.max_obj[pi] {
                            table.max_obj[pi] = sc;
                        }
                        table.obj.insert((t, p), sc);
                    }
                }
            }
        }
        table
    }
}

/// Map (Pr(P∩T), Pr(P), Pr(T)) to a coherence score in `[0, 1]`.
fn coherence_from_probs(pr_joint: f64, pr_p: f64, pr_t: f64) -> f64 {
    debug_assert!(pr_joint > 0.0 && pr_p > 0.0 && pr_t > 0.0);
    if pr_joint >= 1.0 {
        // Every entity is in both sets: maximal association.
        return 1.0;
    }
    let pmi = (pr_joint / (pr_p * pr_t)).ln();
    let npmi = (pmi / (-pr_joint.ln())).clamp(-1.0, 1.0);
    (npmi + 1.0) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_association_scores_high() {
        // 100 entities; type T = 10 of them; P's subjects = the same 10.
        // NPMI = 1 → subSC = 1.
        let sc = coherence_from_probs(0.1, 0.1, 0.1);
        assert!((sc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independence_scores_half() {
        // Pr(joint) = Pr(P)·Pr(T) → PMI = 0 → subSC = 0.5.
        let sc = coherence_from_probs(0.01, 0.1, 0.1);
        assert!((sc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_association_scores_low() {
        // Joint far below independence.
        let sc = coherence_from_probs(0.0001, 0.5, 0.5);
        assert!(sc < 0.5);
        assert!(sc >= 0.0);
    }

    #[test]
    fn degenerate_full_overlap() {
        assert_eq!(coherence_from_probs(1.0, 1.0, 1.0), 1.0);
    }

    #[test]
    fn build_matches_paper_intuition() {
        // Example 5/6 of the paper: `country` should be more coherent with
        // the subject position of hasCapital than `economy`; `capital` more
        // coherent with its object position than `city`.
        //
        // World: 100 entities. 10 countries (all subjects of hasCapital),
        // 30 economies (the 10 countries plus 20 others; only the countries
        // are subjects), 10 capitals (all objects), 40 cities (the 10
        // capitals plus 30 others).
        let country = ClassId(0);
        let economy = ClassId(1);
        let capital = ClassId(2);
        let city = ClassId(3);
        let p = PropertyId(0);

        let n = 100usize;
        let mut types_closure: Vec<Vec<ClassId>> = vec![Vec::new(); n];
        // Entities 0..10: countries (and economies); 10..30: other
        // economies; 30..40: capitals (and cities); 40..70: other cities.
        for (r, tc) in types_closure.iter_mut().enumerate() {
            *tc = match r {
                0..=9 => vec![country, economy],
                10..=29 => vec![economy],
                30..=39 => vec![capital, city],
                40..=69 => vec![city],
                _ => Vec::new(),
            };
        }
        let prop_subjects = vec![(0..10u32).map(ResourceId).collect::<Vec<_>>()];
        let prop_objects = vec![(30..40u32).map(ResourceId).collect::<Vec<_>>()];
        let class_sizes = vec![10, 30, 10, 40];

        let t = CoherenceTable::build(
            n,
            1,
            &types_closure,
            &prop_subjects,
            &prop_objects,
            &class_sizes,
        );
        assert!(t.sub(country, p) > t.sub(economy, p));
        assert!(t.obj(capital, p) > t.obj(city, p));
        assert_eq!(t.max_sub(p), t.sub(country, p));
        assert_eq!(t.max_obj(p), t.obj(capital, p));
        // Unrelated pairs score zero.
        assert_eq!(t.sub(capital, p), 0.0);
    }

    #[test]
    fn empty_kb_builds_empty_table() {
        let t = CoherenceTable::build(0, 0, &[], &[], &[], &[]);
        assert_eq!(t.len_sub(), 0);
        assert_eq!(t.max_sub(PropertyId(0)), 0.0);
    }
}
