//! Property-based invariants of the columnar fact store: every query
//! surface must answer exactly like a triple-list oracle built from the
//! same generated input — same values, same order — before and after
//! enrichment writes, and the cost-based probe planner must never change
//! results, only probe order.
//!
//! The oracle keeps the asserted type and fact triples in a `Vec` in
//! write order and answers each query by a scan. It reads only the class
//! and property hierarchies from the KB, which are not the fact store
//! under test.

use katara_kb::{sim, ClassId, Kb, KbBuilder, Object, PropertyId, ResourceId};
use proptest::prelude::*;

const NC: usize = 5;
const NP: usize = 3;

/// Raw KB input: per-entity type indexes, resource facts, literal
/// facts, and class/property hierarchy edges.
type Input = (
    Vec<Vec<usize>>,
    Vec<(usize, usize, usize)>,
    Vec<(usize, usize, usize)>,
    Vec<(usize, usize)>,
    Vec<(usize, usize)>,
);

/// Random KB inputs with hierarchies, resource facts, literal facts, and
/// repeated assertions — enough surface to exercise every index.
fn input_strategy() -> impl Strategy<Value = Input> {
    let entity = prop::collection::vec(0usize..NC, 0..3);
    let fact = (0usize..16, 0usize..NP, 0usize..16);
    let lit_fact = (0usize..16, 0usize..NP, 0usize..4);
    let edge = (0usize..NC, 0usize..NC);
    let pedge = (0usize..NP, 0usize..NP);
    (
        prop::collection::vec(entity, 4..16),
        prop::collection::vec(fact, 0..30),
        prop::collection::vec(lit_fact, 0..10),
        prop::collection::vec(edge, 0..4),
        prop::collection::vec(pedge, 0..2),
    )
}

/// A triple's object, literals by spelling so the oracle never reads the
/// KB's literal dictionary.
#[derive(Debug, Clone, PartialEq)]
enum Obj {
    Res(ResourceId),
    Lit(String),
}

/// The reference store: asserted triples in write order, queried by scan.
#[derive(Debug, Default)]
struct Oracle {
    resources: usize,
    /// Direct type assertions, each once; the first `base_types` were
    /// made before finalize.
    types: Vec<(ResourceId, ClassId)>,
    base_types: usize,
    /// Fact triples, each once; the first `base_facts` were made before
    /// finalize.
    facts: Vec<(ResourceId, PropertyId, Obj)>,
    base_facts: usize,
    base_resources: usize,
}

/// First-occurrence dedup.
fn dedup<T: PartialEq>(xs: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for x in xs {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

impl Oracle {
    fn add_resource(&mut self) -> ResourceId {
        self.resources += 1;
        ResourceId::from_index(self.resources - 1)
    }

    /// Record a direct type assertion; `false` when already made.
    fn assert_type(&mut self, r: ResourceId, c: ClassId) -> bool {
        let new = !self.types.contains(&(r, c));
        if new {
            self.types.push((r, c));
        }
        new
    }

    /// Record a fact triple; `false` when already asserted.
    fn assert_fact(&mut self, s: ResourceId, p: PropertyId, o: Obj) -> bool {
        let triple = (s, p, o);
        let new = !self.facts.contains(&triple);
        if new {
            self.facts.push(triple);
        }
        new
    }

    /// Mark everything asserted so far as pre-finalize.
    fn freeze(&mut self) {
        self.base_types = self.types.len();
        self.base_facts = self.facts.len();
        self.base_resources = self.resources;
    }

    /// State-changing writes since finalize — what `Kb::version` counts.
    fn writes(&self) -> u64 {
        let new = (self.types.len() - self.base_types)
            + (self.facts.len() - self.base_facts)
            + (self.resources - self.base_resources);
        new as u64
    }

    /// Every `(resource, class)` type-closure entry in storage order: per
    /// resource the sorted closure of its pre-finalize types, then each
    /// later assertion's class and its ancestors as they first appear.
    fn closure(&self, kb: &Kb) -> Vec<(ResourceId, ClassId)> {
        let up = |c: ClassId| {
            std::iter::once(c).chain(kb.class_hierarchy().ancestors(c.0).map(|(a, _)| ClassId(a)))
        };
        let mut out = Vec::new();
        for r in (0..self.resources).map(ResourceId::from_index) {
            let base = &self.types[..self.base_types];
            let mut cs: Vec<ClassId> = base
                .iter()
                .filter(|&&(r2, _)| r2 == r)
                .flat_map(|&(_, c)| up(c))
                .collect();
            cs.sort_unstable();
            cs.dedup();
            out.extend(cs.into_iter().map(|c| (r, c)));
        }
        for &(r, t) in &self.types[self.base_types..] {
            for c in up(t) {
                if !out.contains(&(r, c)) {
                    out.push((r, c));
                }
            }
        }
        out
    }

    fn is_a(kb: &Kb, p: PropertyId, q: PropertyId) -> bool {
        kb.property_hierarchy().is_a(p.0, q.0)
    }

    fn facts_of(&self, s: ResourceId) -> Vec<(PropertyId, Obj)> {
        self.facts
            .iter()
            .filter(|f| f.0 == s)
            .map(|(_, p, o)| (*p, o.clone()))
            .collect()
    }

    fn facts_into(&self, o: ResourceId) -> Vec<(PropertyId, ResourceId)> {
        self.facts
            .iter()
            .filter(|f| f.2 == Obj::Res(o))
            .map(|&(s, p, _)| (p, s))
            .collect()
    }

    fn asserted(&self, a: ResourceId, b: ResourceId) -> Vec<PropertyId> {
        self.facts
            .iter()
            .filter(|f| f.0 == a && f.2 == Obj::Res(b))
            .map(|f| f.1)
            .collect()
    }

    fn relations_between(&self, kb: &Kb, a: ResourceId, b: ResourceId) -> Vec<PropertyId> {
        dedup(self.asserted(a, b).into_iter().flat_map(|p| {
            std::iter::once(p).chain(
                kb.property_hierarchy()
                    .ancestors(p.0)
                    .map(|(q, _)| PropertyId(q)),
            )
        }))
    }

    /// Objects of `s`'s facts under `p` (subproperties included), in
    /// fact order.
    fn objects(&self, kb: &Kb, s: ResourceId, p: PropertyId) -> Vec<Obj> {
        dedup(
            self.facts
                .iter()
                .filter(|f| f.0 == s && Self::is_a(kb, f.1, p))
                .map(|f| f.2.clone()),
        )
    }

    fn subjects_linking(&self, kb: &Kb, o: ResourceId, p: PropertyId) -> Vec<ResourceId> {
        dedup(
            self.facts
                .iter()
                .filter(|f| f.2 == Obj::Res(o) && Self::is_a(kb, f.1, p))
                .map(|f| f.0),
        )
    }

    /// subENT(P) (`objects == false`) or objENT(P): the sorted distinct
    /// endpoints of pre-finalize facts under `p`, then later facts'
    /// endpoints as they first appear.
    fn prop_ents(&self, kb: &Kb, p: PropertyId, objects: bool) -> Vec<ResourceId> {
        let ends = |facts: &[(ResourceId, PropertyId, Obj)]| -> Vec<ResourceId> {
            facts
                .iter()
                .filter(|f| Self::is_a(kb, f.1, p))
                .filter_map(|f| match (&f.2, objects) {
                    (_, false) => Some(f.0),
                    (Obj::Res(o), true) => Some(*o),
                    (Obj::Lit(_), true) => None,
                })
                .collect()
        };
        let mut out = ends(&self.facts[..self.base_facts]);
        out.sort_unstable();
        out.dedup();
        dedup(out.into_iter().chain(ends(&self.facts[self.base_facts..])))
    }
}

/// The KB's view of one object, literals by spelling.
fn obj(kb: &Kb, o: Object) -> Obj {
    match o {
        Object::Resource(r) => Obj::Res(r),
        Object::Literal(l) => Obj::Lit(kb.literal_value(l).to_string()),
    }
}

/// Build the KB and the oracle from the same input.
fn build(input: &Input) -> (Kb, Oracle) {
    let (entities, facts, lit_facts, class_edges, prop_edges) = input;
    let mut b = KbBuilder::new();
    let mut oracle = Oracle::default();
    let classes: Vec<_> = (0..NC).map(|i| b.class(&format!("c{i}"))).collect();
    let props: Vec<_> = (0..NP).map(|i| b.property(&format!("p{i}"))).collect();
    for &(c, p) in class_edges {
        let _ = b.subclass(classes[c], classes[p]);
    }
    for &(p, q) in prop_edges {
        let _ = b.subproperty(props[p], props[q]);
    }
    let mut resources = Vec::new();
    for (i, ts) in entities.iter().enumerate() {
        let types: Vec<_> = ts.iter().map(|&t| classes[t]).collect();
        let r = b.entity(&format!("e{i}"), &types);
        assert_eq!(r, oracle.add_resource());
        for c in types {
            oracle.assert_type(r, c);
        }
        resources.push(r);
    }
    let n = resources.len();
    for &(s, p, o) in facts {
        let (s, o) = (resources[s % n], resources[o % n]);
        b.fact(s, props[p], o);
        oracle.assert_fact(s, props[p], Obj::Res(o));
    }
    for &(s, p, l) in lit_facts {
        let lit = format!("v{l}");
        b.literal_fact(resources[s % n], props[p], &lit);
        oracle.assert_fact(resources[s % n], props[p], Obj::Lit(lit));
    }
    oracle.freeze();
    (b.finalize(), oracle)
}

/// Assert that every read surface of the store answers like the oracle.
fn assert_matches_oracle(kb: &Kb, oracle: &Oracle) {
    prop_assert_eq!(kb.num_entities(), oracle.resources);
    prop_assert_eq!(kb.num_facts(), oracle.facts.len());
    let closure = oracle.closure(kb);
    for r in kb.resource_ids() {
        let want: Vec<ClassId> = closure.iter().filter(|e| e.0 == r).map(|e| e.1).collect();
        prop_assert_eq!(kb.types_closure(r), &want[..], "closure {:?}", r);
        for c in kb.class_ids() {
            prop_assert!(kb.has_type(r, c) == closure.contains(&(r, c)));
        }
        let facts: Vec<_> = kb
            .facts_of(r)
            .iter()
            .map(|&(p, o)| (p, obj(kb, o)))
            .collect();
        prop_assert_eq!(facts, oracle.facts_of(r));
        prop_assert_eq!(kb.facts_into(r), &oracle.facts_into(r)[..]);
        for o in kb.resource_ids() {
            prop_assert_eq!(kb.asserted_relations(r, o), &oracle.asserted(r, o)[..]);
            prop_assert_eq!(
                kb.relations_between(r, o),
                oracle.relations_between(kb, r, o)
            );
        }
        for p in kb.property_ids() {
            let (mut res, mut lits) = (Vec::new(), Vec::new());
            for o in oracle.objects(kb, r, p) {
                match o {
                    Obj::Res(o) => res.push(o),
                    Obj::Lit(l) => lits.push(l),
                }
            }
            prop_assert_eq!(kb.objects_linked(r, p), res);
            let got: Vec<&str> = kb
                .literals_linked(r, p)
                .into_iter()
                .map(|l| kb.literal_value(l))
                .collect();
            prop_assert_eq!(got, lits.iter().map(String::as_str).collect::<Vec<_>>());
            prop_assert_eq!(kb.subjects_linking(r, p), oracle.subjects_linking(kb, r, p));
            let v1 = sim::normalize("v1");
            let holds = lits.iter().any(|l| sim::normalize(l) == v1);
            prop_assert!(kb.holds_literal(r, p, "v1") == holds);
        }
    }
    for c in kb.class_ids() {
        let want: Vec<ResourceId> = closure.iter().filter(|e| e.1 == c).map(|e| e.0).collect();
        prop_assert_eq!(kb.entities_of_class(c), &want[..], "ENT {:?}", c);
    }
    for p in kb.property_ids() {
        prop_assert_eq!(
            kb.subjects_of_property(p),
            &oracle.prop_ents(kb, p, false)[..]
        );
        prop_assert_eq!(
            kb.objects_of_property(p),
            &oracle.prop_ents(kb, p, true)[..]
        );
    }
}

/// The type-first reference: a per-pair [`Kb::relations_between`] nested
/// loop with first-occurrence dedup.
fn per_pair_relations(
    kb: &Kb,
    ca: &[(ResourceId, f64)],
    cb: &[(ResourceId, f64)],
) -> Vec<PropertyId> {
    dedup(ca.iter().flat_map(|&(ra, _)| {
        cb.iter()
            .flat_map(move |&(rb, _)| kb.relations_between(ra, rb))
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn store_matches_triple_list_oracle(input in input_strategy()) {
        let (kb, oracle) = build(&input);
        prop_assert_eq!(kb.version(), 0);
        assert_matches_oracle(&kb, &oracle);
    }

    #[test]
    fn store_matches_triple_list_oracle_after_enrichment(
        input in input_strategy(),
        writes in prop::collection::vec((0usize..16, 0usize..NP, 0usize..16), 1..8),
        typed in (0usize..16, 0usize..NC),
    ) {
        let (mut kb, mut oracle) = build(&input);
        // Re-asserting what the store already holds changes nothing.
        for (s, p, o) in oracle.facts.clone() {
            let changed = match o {
                Obj::Res(o) => kb.add_fact(s, p, o),
                Obj::Lit(l) => kb.add_literal_fact(s, p, &l),
            };
            prop_assert!(!changed, "re-asserting a base fact changed the store");
        }
        prop_assert_eq!(kb.version(), 0);

        let rs: Vec<_> = kb.resource_ids().collect();
        let ps: Vec<_> = kb.property_ids().collect();
        let cs: Vec<_> = kb.class_ids().collect();
        for &(s, p, o) in &writes {
            let (s, p, o) = (rs[s % rs.len()], ps[p], rs[o % rs.len()]);
            prop_assert_eq!(kb.add_fact(s, p, o), oracle.assert_fact(s, p, Obj::Res(o)));
            let lit = format!("v{}", s.index());
            prop_assert_eq!(
                kb.add_literal_fact(o, p, &lit),
                oracle.assert_fact(o, p, Obj::Lit(lit))
            );
        }
        let class = cs[typed.1];
        let fresh = kb.add_entity("fresh", "Fresh One", &[class]);
        prop_assert_eq!(fresh, oracle.add_resource());
        oracle.assert_type(fresh, class);
        let target = rs[typed.0 % rs.len()];
        prop_assert_eq!(kb.add_type(target, class), oracle.assert_type(target, class));
        prop_assert_eq!(
            kb.add_fact(fresh, ps[0], target),
            oracle.assert_fact(fresh, ps[0], Obj::Res(target))
        );
        prop_assert_eq!(kb.version(), oracle.writes());
        assert_matches_oracle(&kb, &oracle);
    }

    #[test]
    fn planner_choice_never_changes_results(
        input in input_strategy(),
        ca_idx in prop::collection::vec(0usize..16, 0..20),
        cb_idx in prop::collection::vec(0usize..16, 0..50),
    ) {
        let (kb, _) = build(&input);
        let rs: Vec<_> = kb.resource_ids().collect();
        let pick = |idx: &[usize]| -> Vec<(ResourceId, f64)> {
            idx.iter().map(|&i| (rs[i % rs.len()], 1.0)).collect()
        };
        let (ca, cb) = (pick(&ca_idx), pick(&cb_idx));
        let (planned, _plan) = kb.relations_for_candidates_planned(&ca, &cb);
        prop_assert_eq!(planned, per_pair_relations(&kb, &ca, &cb), "probe plans disagree on output");
    }
}
