//! The SPARQL-shaped query surface of §4.1 plus the instance-checking
//! primitives used by pattern matching (§3.2), annotation (§6.1) and
//! repair (§6.2).

use crate::columnar::gallop_search;
use crate::dedup::OrderedDedup;
use crate::ids::{ClassId, LiteralId, PropertyId, ResourceId};
use crate::label_index::LabelSearchStats;
use crate::plan::{self, ProbePlan};
use crate::sim;
use crate::store::Kb;

/// The object position of a triple: a resource or a literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Object {
    /// A resource (entity) object, e.g. `Rome`.
    Resource(ResourceId),
    /// A literal object, e.g. `"1.78"`.
    Literal(LiteralId),
}

impl Kb {
    /// Resolve a table cell to candidate KB resources under the ≈ relation:
    /// exact normalized label match scores 1.0; otherwise fuzzy matches at
    /// the configured threshold, best first.
    pub fn candidate_resources(&self, cell: &str) -> Vec<(ResourceId, f64)> {
        self.candidate_resources_normalized(&sim::normalize(cell))
    }

    /// [`Kb::candidate_resources`] for an *already normalized* cell value
    /// (`norm == sim::normalize(norm)`). Both the exact and the fuzzy
    /// lookup normalize internally, so resolving through this entry point
    /// once per distinct normalized value — as the snapshot layer does —
    /// returns exactly what the raw form would for every spelling that
    /// normalizes to `norm`.
    pub fn candidate_resources_normalized(&self, norm: &str) -> Vec<(ResourceId, f64)> {
        self.candidate_resources_counted(norm).0
    }

    /// [`Kb::candidate_resources_normalized`] plus the label-search work
    /// it did: nothing on an exact hit, one fuzzy lookup otherwise.
    pub fn candidate_resources_counted(
        &self,
        norm: &str,
    ) -> (Vec<(ResourceId, f64)>, LabelSearchStats) {
        let exact = self.label_index.exact_normalized(norm);
        if !exact.is_empty() {
            let hits = exact.iter().map(|&r| (r, 1.0)).collect();
            return (hits, LabelSearchStats::default());
        }
        let (hits, stats) = self.label_index.search_normalized(norm, self.sim_threshold);
        let hits = hits.into_iter().map(|m| (m.resource, m.score)).collect();
        (hits, stats)
    }

    /// `Q_types`: the types (and supertypes) of every resource whose label
    /// matches `cell`. Deduplicated, order deterministic.
    pub fn types_of_value(&self, cell: &str) -> Vec<ClassId> {
        self.types_for_candidates(&self.candidate_resources(cell))
    }

    /// `Q_types` from a pre-resolved candidate list (as produced by
    /// [`Kb::candidate_resources`]): first-occurrence deduplicated union of
    /// the candidates' type closures.
    pub fn types_for_candidates(&self, candidates: &[(ResourceId, f64)]) -> Vec<ClassId> {
        let mut out: Vec<ClassId> = Vec::new();
        let mut seen = OrderedDedup::new();
        for &(r, _) in candidates {
            seen.extend(self.types_closure(r).iter().copied(), &mut out);
        }
        out
    }

    /// Asserted properties from `a` to `b`, *without* superproperty
    /// expansion.
    pub fn asserted_relations(&self, a: ResourceId, b: ResourceId) -> &[PropertyId] {
        self.rr.get(a, b)
    }

    /// Properties (including superproperties of asserted ones) from
    /// resource `a` to resource `b` — the closure the `P_ij/subPropertyOf*`
    /// path in `Q_rels^1` produces.
    pub fn relations_between(&self, a: ResourceId, b: ResourceId) -> Vec<PropertyId> {
        let mut out = Vec::new();
        let mut seen = OrderedDedup::new();
        self.relations_between_into(a, b, &mut seen, &mut out);
        out
    }

    /// Shared body of `Q_rels^1`: asserted properties from `a` to `b`
    /// followed by their superproperty closures, first occurrence wins.
    fn relations_between_into(
        &self,
        a: ResourceId,
        b: ResourceId,
        seen: &mut OrderedDedup<PropertyId>,
        out: &mut Vec<PropertyId>,
    ) {
        for &p in self.asserted_relations(a, b) {
            seen.push(p, out);
            seen.extend(
                self.prop_hier
                    .ancestors_slice(p.0)
                    .iter()
                    .map(|&(anc, _)| PropertyId(anc)),
                out,
            );
        }
    }

    /// `Q_rels^1`: relationships between two *values*, where both resolve
    /// to resources. Considers every candidate resource pair.
    pub fn relations_between_values(&self, a: &str, b: &str) -> Vec<PropertyId> {
        self.relations_for_candidates(&self.candidate_resources(a), &self.candidate_resources(b))
    }

    /// `Q_rels^1` from pre-resolved candidate lists for both values.
    pub fn relations_for_candidates(
        &self,
        ca: &[(ResourceId, f64)],
        cb: &[(ResourceId, f64)],
    ) -> Vec<PropertyId> {
        self.relations_for_candidates_planned(ca, cb).0
    }

    /// [`Kb::relations_for_candidates`] plus the [`ProbePlan`] the
    /// cost-based planner picked for this pattern. Both plans emit
    /// byte-identical output; the plan is returned so callers can tally
    /// planner decisions into observability counters.
    pub fn relations_for_candidates_planned(
        &self,
        ca: &[(ResourceId, f64)],
        cb: &[(ResourceId, f64)],
    ) -> (Vec<PropertyId>, ProbePlan) {
        // Enrichment overlay entries pin per-pair probes: merge joins over
        // the base adjacency runs would miss overlay-only keys.
        let plan = if self.rr.has_overlay() {
            ProbePlan::TypeFirst
        } else {
            plan::choose(ca.len(), cb.len(), &self.stats)
        };
        let mut out = Vec::new();
        let mut seen = OrderedDedup::new();
        match plan {
            ProbePlan::TypeFirst => {
                for &(ra, _) in ca {
                    for &(rb, _) in cb {
                        self.relations_between_into(ra, rb, &mut seen, &mut out);
                    }
                }
            }
            ProbePlan::RelFirst => self.relations_rel_first(ca, cb, &mut seen, &mut out),
        }
        (out, plan)
    }

    /// Relation-first executor: per subject candidate, gallop-merge the
    /// (sorted, overlay-free) base adjacency run against the object
    /// candidates sorted by id, then emit matches in `cb` position order
    /// so the output is byte-identical to the per-pair nested loop.
    /// Only reachable with an empty overlay — the planner guarantees it.
    fn relations_rel_first(
        &self,
        ca: &[(ResourceId, f64)],
        cb: &[(ResourceId, f64)],
        seen: &mut OrderedDedup<PropertyId>,
        out: &mut Vec<PropertyId>,
    ) {
        let mut sorted_cb: Vec<(ResourceId, u32)> = cb
            .iter()
            .enumerate()
            .map(|(pos, &(rb, _))| (rb, pos as u32))
            .collect();
        sorted_cb.sort_unstable();
        // (cb position, arena key) matches for one subject.
        let mut matches: Vec<(u32, usize)> = Vec::new();
        for &(ra, _) in ca {
            matches.clear();
            let (adj, base) = self.rr.adjacency(ra);
            let (mut i, mut j) = (0usize, 0usize);
            while i < adj.len() && j < sorted_cb.len() {
                let a = adj[i];
                let b = sorted_cb[j].0;
                if a < b {
                    // Gallop the adjacency run forward to the candidate.
                    i += match gallop_search(&adj[i..], &b) {
                        Ok(d) | Err(d) => d,
                    };
                } else if b < a {
                    j += sorted_cb[j..].partition_point(|&(rb, _)| rb < a);
                } else {
                    // Duplicate candidate entries all match this run slot.
                    while j < sorted_cb.len() && sorted_cb[j].0 == a {
                        matches.push((sorted_cb[j].1, base + i));
                        j += 1;
                    }
                    i += 1;
                }
            }
            matches.sort_unstable();
            for &(_, key) in &matches {
                for &p in self.rr.props_at(key) {
                    seen.push(p, out);
                    seen.extend(
                        self.prop_hier
                            .ancestors_slice(p.0)
                            .iter()
                            .map(|&(anc, _)| PropertyId(anc)),
                        out,
                    );
                }
            }
        }
    }

    /// `Q_rels^2`: relationships from resources matching `a` to a *literal*
    /// whose normalized spelling equals `b`'s.
    pub fn relations_to_literal(&self, a: &str, b: &str) -> Vec<PropertyId> {
        self.literal_relations_for_candidates(&self.candidate_resources(a), &sim::normalize(b))
    }

    /// `Q_rels^2` from a pre-resolved candidate list for the subject and a
    /// pre-normalized literal spelling.
    pub fn literal_relations_for_candidates(
        &self,
        ca: &[(ResourceId, f64)],
        norm_b: &str,
    ) -> Vec<PropertyId> {
        let lids = self.literal_norm.get(norm_b);
        if lids.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut seen = OrderedDedup::new();
        for &(ra, _) in ca {
            for &lid in lids {
                for &p in self.rl.get(ra, lid) {
                    seen.push(p, &mut out);
                    seen.extend(
                        self.prop_hier
                            .ancestors_slice(p.0)
                            .iter()
                            .map(|&(anc, _)| PropertyId(anc)),
                        &mut out,
                    );
                }
            }
        }
        out
    }

    /// Condition 3 of §3.2: does some `P'` with `P' = p` or
    /// `subpropertyOf(P', p)` hold from `a` to `b`?
    pub fn holds(&self, a: ResourceId, p: PropertyId, b: ResourceId) -> bool {
        self.asserted_relations(a, b)
            .iter()
            .any(|&p2| self.prop_hier.is_a(p2.0, p.0))
    }

    /// Literal variant of [`Kb::holds`]: `p(a, lit)` up to literal
    /// normalization and subproperty closure.
    pub fn holds_literal(&self, a: ResourceId, p: PropertyId, lit: &str) -> bool {
        let norm = sim::normalize(lit);
        self.literal_norm.get(&norm).iter().any(|&lid| {
            self.rl
                .get(a, lid)
                .iter()
                .any(|&p2| self.prop_hier.is_a(p2.0, p.0))
        })
    }

    /// All resources `o` such that `holds(s, p, o)` — used by instance-graph
    /// expansion in repair generation.
    pub fn objects_linked(&self, s: ResourceId, p: PropertyId) -> Vec<ResourceId> {
        let mut out = Vec::new();
        let mut seen = OrderedDedup::new();
        for &(p2, obj) in self.facts_of(s) {
            if let Object::Resource(o) = obj {
                if self.prop_hier.is_a(p2.0, p.0) {
                    seen.push(o, &mut out);
                }
            }
        }
        out
    }

    /// All literals `l` such that `p(s, l)` holds (with subproperty
    /// closure).
    pub fn literals_linked(&self, s: ResourceId, p: PropertyId) -> Vec<LiteralId> {
        let mut out = Vec::new();
        let mut seen = OrderedDedup::new();
        for &(p2, obj) in self.facts_of(s) {
            if let Object::Literal(l) = obj {
                if self.prop_hier.is_a(p2.0, p.0) {
                    seen.push(l, &mut out);
                }
            }
        }
        out
    }

    /// Two-hop relationships from `a` to `b` through one intermediate
    /// resource: every `(P1, m, P2)` with `P1(a, m)` and `P2(m, b)`.
    ///
    /// This powers the §9 future-work pattern extension ("a person column
    /// A1 is related to a country column A2 via `A1 wasBornIn city` and
    /// `city isLocatedIn A2`").
    pub fn two_hop_relations(
        &self,
        a: ResourceId,
        b: ResourceId,
    ) -> Vec<(PropertyId, ResourceId, PropertyId)> {
        let mut out = Vec::new();
        let mut seen = OrderedDedup::new();
        for &(p1, obj) in self.facts_of(a) {
            let Object::Resource(mid) = obj else {
                continue;
            };
            for &p2 in self.asserted_relations(mid, b) {
                seen.push((p1, mid, p2), &mut out);
            }
        }
        out
    }

    /// Two-hop variant over table *values*: all `(P1, P2)` pairs holding
    /// between any candidate resources of `a` and `b`, with the
    /// intermediate's type constrained to `via` when given.
    pub fn two_hop_relations_between_values(
        &self,
        a: &str,
        b: &str,
        via: Option<ClassId>,
    ) -> Vec<(PropertyId, PropertyId)> {
        let mut out = Vec::new();
        let mut seen = OrderedDedup::new();
        for (ra, _) in self.candidate_resources(a) {
            for (rb, _) in self.candidate_resources(b) {
                for (p1, mid, p2) in self.two_hop_relations(ra, rb) {
                    if let Some(class) = via {
                        if !self.has_type(mid, class) {
                            continue;
                        }
                    }
                    seen.push((p1, p2), &mut out);
                }
            }
        }
        out
    }

    /// Does `p1 ∘ p2` (with subproperty closure on both hops) hold from
    /// `a` to `b` through any intermediate?
    pub fn holds_two_hop(
        &self,
        a: ResourceId,
        p1: PropertyId,
        p2: PropertyId,
        b: ResourceId,
    ) -> bool {
        self.facts_of(a).iter().any(|&(pa, obj)| {
            let Object::Resource(mid) = obj else {
                return false;
            };
            self.prop_hier.is_a(pa.0, p1.0) && self.holds(mid, p2, b)
        })
    }

    /// Does any resource whose label matches `cell` carry type `c` (via
    /// closure)? This is the per-cell type check used in annotation.
    pub fn value_has_type(&self, cell: &str, c: ClassId) -> bool {
        self.candidate_resources(cell)
            .iter()
            .any(|&(r, _)| self.has_type(r, c))
    }

    /// Resources matching `cell` that carry type `c`, best match first.
    pub fn typed_candidates(&self, cell: &str, c: ClassId) -> Vec<(ResourceId, f64)> {
        self.candidate_resources(cell)
            .into_iter()
            .filter(|&(r, _)| self.has_type(r, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KbBuilder;

    /// The paper's running example: soccer players, countries, capitals.
    fn fig1_kb() -> (Kb, [ClassId; 3], [PropertyId; 2]) {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let country = b.class("country");
        let location = b.class("location");
        let capital = b.class("capital");
        b.subclass(capital, location).unwrap();
        let nationality = b.property("nationality");
        let has_capital = b.property("hasCapital");

        let rossi = b.entity("Rossi", &[person]);
        let pirlo = b.entity("Pirlo", &[person]);
        let italy = b.entity("Italy", &[country]);
        let spain = b.entity("Spain", &[country]);
        let rome = b.entity("Rome", &[capital]);
        let madrid = b.entity("Madrid", &[capital]);
        b.fact(rossi, nationality, italy);
        b.fact(pirlo, nationality, italy);
        b.fact(italy, has_capital, rome);
        b.fact(spain, has_capital, madrid);
        (
            b.finalize(),
            [person, country, capital],
            [nationality, has_capital],
        )
    }

    #[test]
    fn q_types_returns_closure() {
        let (kb, [_, _, capital], _) = fig1_kb();
        let location = kb.class_by_name("location").unwrap();
        let types = kb.types_of_value("Rome");
        assert!(types.contains(&capital));
        assert!(types.contains(&location), "supertype must be included");
    }

    #[test]
    fn q_rels1_finds_has_capital() {
        let (kb, _, [_, has_capital]) = fig1_kb();
        let rels = kb.relations_between_values("Italy", "Rome");
        assert_eq!(rels, vec![has_capital]);
        // Reverse direction: nothing.
        assert!(kb.relations_between_values("Rome", "Italy").is_empty());
    }

    #[test]
    fn q_rels2_litervideos() {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let height = b.property("hasHeight");
        let rossi = b.entity("Rossi", &[person]);
        b.literal_fact(rossi, height, "1.78");
        let kb = b.finalize();

        assert_eq!(kb.relations_to_literal("Rossi", "1.78"), vec![height]);
        assert!(kb.relations_to_literal("Rossi", "1.80").is_empty());
        assert!(kb.relations_to_literal("Nobody", "1.78").is_empty());
    }

    #[test]
    fn holds_checks_subproperty_closure() {
        let mut b = KbBuilder::new();
        let c = b.class("thing");
        let located_in = b.property("locatedIn");
        let capital_of = b.property("capitalOf");
        b.subproperty(capital_of, located_in).unwrap();
        let rome = b.entity("Rome", &[c]);
        let italy = b.entity("Italy", &[c]);
        b.fact(rome, capital_of, italy);
        let kb = b.finalize();

        assert!(kb.holds(rome, capital_of, italy));
        assert!(kb.holds(rome, located_in, italy), "subproperty must count");
        assert!(!kb.holds(italy, located_in, rome));
    }

    #[test]
    fn missing_link_is_empty_not_error() {
        let (kb, _, _) = fig1_kb();
        // Italy -> Madrid has no relationship (the t3 error case).
        assert!(kb.relations_between_values("Italy", "Madrid").is_empty());
    }

    #[test]
    fn candidate_resources_fuzzy() {
        let (kb, _, _) = fig1_kb();
        let cands = kb.candidate_resources("Madird"); // transposition typo
        assert_eq!(cands.len(), 1);
        assert_eq!(kb.label_of(cands[0].0), "Madrid");
        assert!(cands[0].1 >= 0.7 && cands[0].1 < 1.0);
    }

    #[test]
    fn value_has_type_and_typed_candidates() {
        let (kb, [person, country, _], _) = fig1_kb();
        assert!(kb.value_has_type("Rossi", person));
        assert!(!kb.value_has_type("Rossi", country));
        let t = kb.typed_candidates("Italy", country);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn two_hop_relations_find_the_composition() {
        // The §9 example: person wasBornIn city, city isLocatedIn country.
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let city = b.class("city");
        let country = b.class("country");
        let born_in = b.property("wasBornIn");
        let located_in = b.property("isLocatedIn");
        let pirlo = b.entity("Pirlo", &[person]);
        let flero = b.entity("Flero", &[city]);
        let italy = b.entity("Italy", &[country]);
        b.fact(pirlo, born_in, flero);
        b.fact(flero, located_in, italy);
        let kb = b.finalize();

        let hops = kb.two_hop_relations(pirlo, italy);
        assert_eq!(hops, vec![(born_in, flero, located_in)]);
        assert!(kb.holds_two_hop(pirlo, born_in, located_in, italy));
        assert!(!kb.holds_two_hop(italy, born_in, located_in, pirlo));

        // Value-level variant with a type constraint on the hop.
        let pairs = kb.two_hop_relations_between_values("Pirlo", "Italy", Some(city));
        assert_eq!(pairs, vec![(born_in, located_in)]);
        let none = kb.two_hop_relations_between_values("Pirlo", "Italy", Some(country));
        assert!(none.is_empty(), "hop typed country must not match a city");
    }

    #[test]
    fn normalized_and_candidate_forms_match_raw() {
        let (kb, _, _) = fig1_kb();
        for (a, b) in [("Italy", "Rome"), ("  ITALY ", "rome"), ("Madird", "x")] {
            let na = sim::normalize(a);
            assert_eq!(
                kb.candidate_resources(a),
                kb.candidate_resources_normalized(&na),
                "candidates {a}"
            );
            let ca = kb.candidate_resources(a);
            let cb = kb.candidate_resources(b);
            assert_eq!(kb.types_of_value(a), kb.types_for_candidates(&ca));
            assert_eq!(
                kb.relations_between_values(a, b),
                kb.relations_for_candidates(&ca, &cb),
                "rels {a}/{b}"
            );
            assert_eq!(
                kb.relations_to_literal(a, b),
                kb.literal_relations_for_candidates(&ca, &sim::normalize(b)),
                "lit rels {a}/{b}"
            );
        }
    }

    /// The type-first reference: a per-pair [`Kb::relations_between`]
    /// nested loop with first-occurrence dedup.
    fn per_pair_relations(
        kb: &Kb,
        ca: &[(ResourceId, f64)],
        cb: &[(ResourceId, f64)],
    ) -> Vec<PropertyId> {
        let mut out = Vec::new();
        let mut seen = OrderedDedup::new();
        for &(ra, _) in ca {
            for &(rb, _) in cb {
                seen.extend(kb.relations_between(ra, rb), &mut out);
            }
        }
        out
    }

    #[test]
    fn both_probe_plans_emit_identical_relations() {
        // Dense KB: one hub subject with many facts, candidate lists wide
        // enough to push the planner to rel-first.
        let mut b = KbBuilder::new();
        let c = b.class("thing");
        let rel = b.property("rel");
        let sup = b.property("linked");
        b.subproperty(rel, sup).unwrap();
        let subjects: Vec<_> = (0..6).map(|i| b.entity(&format!("S{i}"), &[c])).collect();
        let objects: Vec<_> = (0..40).map(|i| b.entity(&format!("O{i}"), &[c])).collect();
        for &s in &subjects {
            for (i, &o) in objects.iter().enumerate() {
                if i % 3 == 0 {
                    b.fact(s, rel, o);
                }
            }
        }
        let kb = b.finalize();

        let ca: Vec<_> = subjects.iter().map(|&s| (s, 1.0)).collect();
        // Reversed + duplicated object candidates: order and dedup of the
        // output must still match the per-pair nested loop exactly.
        let mut cb: Vec<_> = objects.iter().rev().map(|&o| (o, 0.9)).collect();
        cb.push(cb[0]);
        let (fast, plan) = kb.relations_for_candidates_planned(&ca, &cb);
        assert_eq!(plan, ProbePlan::RelFirst, "pattern should pick rel-first");
        assert_eq!(fast, per_pair_relations(&kb, &ca, &cb));
        assert_eq!(fast, vec![rel, sup]);

        // Re-asserting a base fact is a no-op: it leaves the version
        // alone and must not shadow the base key, so rel-first stays.
        let mut enriched = kb.clone();
        assert!(!enriched.add_fact(subjects[0], rel, objects[0]));
        assert_eq!(enriched.version(), kb.version());
        let (noop, plan_noop) = enriched.relations_for_candidates_planned(&ca, &cb);
        assert_eq!(
            plan_noop,
            ProbePlan::RelFirst,
            "no-op write pinned type-first"
        );
        assert_eq!(noop, fast);

        // A real enrichment write puts the store into overlay mode: the
        // planner must fall back to per-pair probes.
        assert!(enriched.add_fact(subjects[0], rel, objects[1]));
        let (after, plan_after) = enriched.relations_for_candidates_planned(&ca, &cb);
        assert_eq!(plan_after, ProbePlan::TypeFirst);
        assert_eq!(after, per_pair_relations(&enriched, &ca, &cb));
        assert_eq!(after, vec![rel, sup]);
    }

    #[test]
    fn objects_linked_expansion() {
        let (kb, _, [_, has_capital]) = fig1_kb();
        let italy = kb.resource_by_name("Italy").unwrap();
        let rome = kb.resource_by_name("Rome").unwrap();
        assert_eq!(kb.objects_linked(italy, has_capital), vec![rome]);
    }
}
