//! The SPARQL-shaped query surface of §4.1 plus the instance-checking
//! primitives used by pattern matching (§3.2), annotation (§6.1) and
//! repair (§6.2).

use crate::dedup::OrderedDedup;
use crate::ids::{ClassId, LiteralId, PropertyId, ResourceId};
use crate::label_index::LabelSearchStats;
use crate::sim;
use crate::store::Kb;
use crate::DEFAULT_SIM_THRESHOLD;

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
        let (hits, stats) = self
            .label_index
            .search_normalized(norm, DEFAULT_SIM_THRESHOLD);
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

    /// `Q_rels^1` from pre-resolved candidate lists for both values: the
    /// per-pair [`Kb::relations_between`] closures over `ca × cb` in
    /// candidate order, first occurrence wins.
    pub fn relations_for_candidates(
        &self,
        ca: &[(ResourceId, f64)],
        cb: &[(ResourceId, f64)],
    ) -> Vec<PropertyId> {
        let mut out = Vec::new();
        let mut seen = OrderedDedup::new();
        for &(ra, _) in ca {
            for &(rb, _) in cb {
                self.relations_between_into(ra, rb, &mut seen, &mut out);
            }
        }
        out
    }

    /// [`Kb::relations_for_candidates`] under its former name. It exists
    /// only for `perfbench`'s traced decomposition, which calls this name
    /// and changes only together with the benchmark.
    #[doc(hidden)]
    pub fn relations_for_candidates_planned(
        &self,
        ca: &[(ResourceId, f64)],
        cb: &[(ResourceId, f64)],
    ) -> Vec<PropertyId> {
        self.relations_for_candidates(ca, cb)
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
        let typed = kb
            .candidate_resources("Italy")
            .into_iter()
            .filter(|&(r, _)| kb.has_type(r, country))
            .count();
        assert_eq!(typed, 1);
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

    #[test]
    fn objects_linked_expansion() {
        let (kb, _, [_, has_capital]) = fig1_kb();
        let italy = kb.resource_by_name("Italy").unwrap();
        let rome = kb.resource_by_name("Rome").unwrap();
        assert_eq!(kb.objects_linked(italy, has_capital), vec![rome]);
    }
}
