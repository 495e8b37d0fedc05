//! Ergonomic KB construction.
//!
//! [`KbBuilder`] accumulates schema (classes, properties, hierarchies) and
//! data (entities, facts); [`KbBuilder::finalize`] freezes everything,
//! rebuilds the hierarchy closures, derives the type closure and ENT sets,
//! and precomputes the coherence table. Each frozen arena is moved behind
//! an `Arc` that every clone of the [`Kb`] shares.

use std::collections::HashMap;
use std::sync::Arc;

use crate::coherence::CoherenceTable;
use crate::columnar::{CsrRows, NormIndex, PairCsr, SharedVec};
use crate::error::KbError;
use crate::ids::{ClassId, LiteralId, PropertyId, ResourceId};
use crate::ingest::{BrokenEdge, KbAudit, LabelCollision};
use crate::interner::Interner;
use crate::label_index::LabelIndex;
use crate::ontology::Hierarchy;
use crate::query::Object;
use crate::sim;
use crate::store::Kb;

/// Builder for [`Kb`].
#[derive(Debug, Default)]
pub struct KbBuilder {
    name: String,
    resources: Interner,
    classes: Interner,
    props: Interner,
    literals: Interner,
    labels: Vec<String>,
    direct_types: Vec<Vec<ClassId>>,
    class_hier: Hierarchy,
    prop_hier: Hierarchy,
    facts: Vec<(ResourceId, PropertyId, Object)>,
    /// What the audited declaration methods repaired so far.
    audit: KbAudit,
}

impl KbBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        KbBuilder {
            name: "kb".to_string(),
            ..Default::default()
        }
    }

    /// Set the KB's display name.
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Declare (or fetch) a class by name.
    pub fn class(&mut self, name: &str) -> ClassId {
        let c = ClassId::from_index(self.classes.intern(name));
        self.class_hier.ensure_node(c.0);
        c
    }

    /// Declare (or fetch) a property by name.
    pub fn property(&mut self, name: &str) -> PropertyId {
        let p = PropertyId::from_index(self.props.intern(name));
        self.prop_hier.ensure_node(p.0);
        p
    }

    /// Declare `subclassOf(child, parent)`.
    pub fn subclass(&mut self, child: ClassId, parent: ClassId) -> Result<(), KbError> {
        self.class_hier.add_edge(child.0, parent.0, "subClassOf")
    }

    /// Declare `subpropertyOf(child, parent)`.
    pub fn subproperty(&mut self, child: PropertyId, parent: PropertyId) -> Result<(), KbError> {
        self.prop_hier.add_edge(child.0, parent.0, "subPropertyOf")
    }

    /// Declare `subclassOf(child, parent)`, repairing instead of failing:
    /// an edge that would create a cycle (or self-loop) is dropped
    /// deterministically — the hierarchy keeps every edge declared *before*
    /// it — and recorded in the audit. Returns `true` iff the edge was kept.
    pub fn subclass_audited(&mut self, child: ClassId, parent: ClassId) -> bool {
        match self.subclass(child, parent) {
            Ok(()) => true,
            Err(e) => {
                self.record_broken_edge(&e, |b, id| b.classes.resolve(id as usize).to_string());
                false
            }
        }
    }

    /// Declare `subpropertyOf(child, parent)` with the same repair
    /// semantics as [`KbBuilder::subclass_audited`].
    pub fn subproperty_audited(&mut self, child: PropertyId, parent: PropertyId) -> bool {
        match self.subproperty(child, parent) {
            Ok(()) => true,
            Err(e) => {
                self.record_broken_edge(&e, |b, id| b.props.resolve(id as usize).to_string());
                false
            }
        }
    }

    fn record_broken_edge(&mut self, e: &KbError, name: impl Fn(&Self, u32) -> String) {
        let broken = match *e {
            KbError::SelfLoop { kind, node } => BrokenEdge {
                hierarchy: kind,
                child: name(self, node),
                parent: name(self, node),
                self_loop: true,
            },
            KbError::HierarchyCycle {
                kind,
                child,
                parent,
            } => BrokenEdge {
                hierarchy: kind,
                child: name(self, child),
                parent: name(self, parent),
                self_loop: false,
            },
            // invariant: add_edge only fails with the two cycle variants.
            ref other => BrokenEdge {
                hierarchy: "unknown",
                child: other.to_string(),
                parent: String::new(),
                self_loop: false,
            },
        };
        self.audit.broken_edges.push(broken);
    }

    /// Declare (or fetch) an entity whose label equals its unique name.
    /// Re-declaring merges the type lists.
    pub fn entity(&mut self, name: &str, types: &[ClassId]) -> ResourceId {
        self.entity_labeled(name, name, types)
    }

    /// Declare an entity with an explicit label distinct from its unique
    /// name (e.g. name `"Rossi_(racer)"`, label `"Rossi"`).
    pub fn entity_labeled(&mut self, name: &str, label: &str, types: &[ClassId]) -> ResourceId {
        let before = self.resources.len();
        let r = ResourceId::from_index(self.resources.intern(name));
        if r.index() == before {
            self.labels.push(label.to_string());
            self.direct_types.push(Vec::new());
        }
        for &t in types {
            self.add_direct_type(r, t);
        }
        r
    }

    /// Give the declared entity `r` the direct type `class`, unless it
    /// already has it.
    pub(crate) fn add_direct_type(&mut self, r: ResourceId, class: ClassId) {
        let types = &mut self.direct_types[r.index()];
        if !types.contains(&class) {
            types.push(class);
        }
    }

    /// Assert fact `p(s, o)` between two resources.
    pub fn fact(&mut self, s: ResourceId, p: PropertyId, o: ResourceId) {
        self.facts.push((s, p, Object::Resource(o)));
    }

    /// Assert fact `p(s, lit)` with a literal object.
    pub fn literal_fact(&mut self, s: ResourceId, p: PropertyId, lit: &str) {
        let l = LiteralId::from_index(self.literals.intern(lit));
        self.facts.push((s, p, Object::Literal(l)));
    }

    /// Number of entities declared so far.
    pub fn num_entities(&self) -> usize {
        self.labels.len()
    }

    /// Err when any dense id space is within `margin` new ids of the
    /// `u32` cap. Ingestion loops call this per statement (one triple
    /// introduces at most two ids per space), so an adversarially large
    /// dump surfaces a typed [`KbError::IdSpaceExhausted`] at the
    /// boundary instead of panicking inside the id constructors.
    pub fn check_id_headroom(&self, margin: usize) -> Result<(), KbError> {
        for (len, kind) in [
            (self.resources.len(), ResourceId::KIND),
            (self.classes.len(), ClassId::KIND),
            (self.props.len(), PropertyId::KIND),
            (self.literals.len(), LiteralId::KIND),
        ] {
            if id_headroom_exceeded(len, margin) {
                return Err(KbError::IdSpaceExhausted { kind, index: len });
            }
        }
        Ok(())
    }

    /// Freeze into a queryable [`Kb`] and report what the audit pass saw:
    /// every hierarchy edge the `*_audited` methods dropped, plus labels
    /// shared by more than one resource (collisions are legal — KATARA
    /// disambiguates by type — but a sudden spike flags a mangled dump).
    pub fn finalize_audited(mut self) -> (Kb, KbAudit) {
        let mut audit = std::mem::take(&mut self.audit);
        let kb = self.finalize();
        audit.label_collisions = label_collisions(&kb);
        (kb, audit)
    }

    /// Freeze into a queryable [`Kb`].
    pub fn finalize(mut self) -> Kb {
        self.class_hier.rebuild_closure();
        self.prop_hier.rebuild_closure();

        let n = self.labels.len();
        let num_classes = self.classes.len();
        let num_props = self.props.len();

        // Type closure and ENT sets.
        let mut types_closure: Vec<Vec<ClassId>> = vec![Vec::new(); n];
        let mut class_entities: Vec<Vec<ResourceId>> = vec![Vec::new(); num_classes];
        for (ri, dts) in self.direct_types.iter().enumerate() {
            let r = ResourceId::from_index(ri);
            let closure = &mut types_closure[ri];
            for &t in dts {
                if !closure.contains(&t) {
                    closure.push(t);
                }
                for (anc, _) in self.class_hier.ancestors(t.0) {
                    let anc = ClassId(anc);
                    if !closure.contains(&anc) {
                        closure.push(anc);
                    }
                }
            }
            closure.sort_unstable();
            for &c in closure.iter() {
                class_entities[c.index()].push(r);
            }
        }

        let label_index = LabelIndex::build(&self.labels);

        // Fact indexes.
        let mut out_edges: Vec<Vec<(PropertyId, Object)>> = vec![Vec::new(); n];
        let mut in_edges: Vec<Vec<(PropertyId, ResourceId)>> = vec![Vec::new(); n];
        let mut rr_index: HashMap<(ResourceId, ResourceId), Vec<PropertyId>> = HashMap::new();
        let mut rl_index: HashMap<(ResourceId, LiteralId), Vec<PropertyId>> = HashMap::new();
        let mut prop_subjects: Vec<Vec<ResourceId>> = vec![Vec::new(); num_props];
        let mut prop_objects: Vec<Vec<ResourceId>> = vec![Vec::new(); num_props];
        let mut fact_count = 0usize;
        for &(s, p, o) in &self.facts {
            let (key_props, is_new) = match o {
                Object::Resource(or) => {
                    let v = rr_index.entry((s, or)).or_default();
                    let new = !v.contains(&p);
                    (v, new)
                }
                Object::Literal(l) => {
                    let v = rl_index.entry((s, l)).or_default();
                    let new = !v.contains(&p);
                    (v, new)
                }
            };
            if !is_new {
                continue; // duplicate assertion
            }
            key_props.push(p);
            out_edges[s.index()].push((p, o));
            if let Object::Resource(or) = o {
                in_edges[or.index()].push((p, s));
            }
            fact_count += 1;
            // Fold subject/object into P and all superproperties.
            let mut ps = vec![p.0];
            ps.extend(self.prop_hier.ancestors(p.0).map(|(a, _)| a));
            for pa in ps {
                let pa = pa as usize;
                prop_subjects[pa].push(s);
                if let Object::Resource(or) = o {
                    prop_objects[pa].push(or);
                }
            }
        }
        for v in prop_subjects.iter_mut().chain(prop_objects.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }

        // Literal normalization map.
        let mut literal_norm: HashMap<String, Vec<LiteralId>> = HashMap::new();
        for (li, lit) in self.literals.iter() {
            literal_norm
                .entry(sim::normalize(lit))
                .or_default()
                .push(LiteralId::from_index(li));
        }

        // Coherence table (offline, as in the paper).
        let class_sizes: Vec<usize> = class_entities.iter().map(Vec::len).collect();
        let coherence = CoherenceTable::build(
            n,
            num_props,
            &types_closure,
            &prop_subjects,
            &prop_objects,
            &class_sizes,
        );

        // Pack the build-time rows into the columnar arenas. Hash-map
        // iteration order is laundered through sorts, so the arenas — and
        // every query answered from them — are deterministic.
        let rr_pairs = sorted_by_key(rr_index);
        let rr = PairCsr::from_sorted_pairs(n, &rr_pairs);
        let rl_pairs = sorted_by_key(rl_index);
        let rl = PairCsr::from_sorted_pairs(n, &rl_pairs);
        let norms = sorted_by_key(literal_norm);

        Kb {
            name: self.name,
            resources: self.resources.freeze(),
            classes: self.classes.freeze(),
            props: self.props.freeze(),
            literals: self.literals.freeze(),
            labels: SharedVec::new(self.labels),
            label_index,
            class_hier: Arc::new(self.class_hier),
            prop_hier: Arc::new(self.prop_hier),
            direct_types: CsrRows::from_rows(&self.direct_types),
            types_closure: CsrRows::from_rows(&types_closure),
            class_entities: CsrRows::from_rows(&class_entities),
            out_edges: CsrRows::from_rows(&out_edges),
            in_edges: CsrRows::from_rows(&in_edges),
            rr,
            rl,
            prop_subjects: CsrRows::from_rows(&prop_subjects),
            prop_objects: CsrRows::from_rows(&prop_objects),
            literal_norm: NormIndex::from_sorted(norms),
            coherence: Arc::new(coherence),
            fact_count,
            version: 0,
            capture: None,
        }
    }
}

/// Labels that more than one resource of a freshly finalized `kb`
/// carries, sorted by label, each with its resources' names in id order.
/// Equal labels normalize alike, so each collision lies within one slot
/// of the label index: only slots holding several resources are grouped.
fn label_collisions(kb: &Kb) -> Vec<LabelCollision> {
    let mut collisions = Vec::new();
    for slot in kb.label_index.base_resources().filter(|rs| rs.len() > 1) {
        let mut by_label = slot.to_vec();
        // Stable: each label's resources stay in id order.
        by_label.sort_by(|&a, &b| kb.label_of(a).cmp(kb.label_of(b)));
        for group in by_label.chunk_by(|&a, &b| kb.label_of(a) == kb.label_of(b)) {
            if group.len() > 1 {
                collisions.push(LabelCollision {
                    label: kb.label_of(group[0]).to_string(),
                    resources: group
                        .iter()
                        .map(|&r| kb.resource_name(r).to_string())
                        .collect(),
                });
            }
        }
    }
    collisions.sort_by(|a, b| a.label.cmp(&b.label));
    collisions
}

/// A hash map's entries sorted by key — the order the arenas pack in.
fn sorted_by_key<K: Ord, V>(map: HashMap<K, V>) -> Vec<(K, V)> {
    let mut pairs: Vec<(K, V)> = map.into_iter().collect();
    pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    pairs
}

/// Does a dense id space with `len` assigned ids lack room for `margin`
/// more below the `u32` cap?
fn id_headroom_exceeded(len: usize, margin: usize) -> bool {
    (u32::MAX as usize).saturating_sub(len) < margin
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_headroom_boundary() {
        let cap = u32::MAX as usize;
        assert!(!id_headroom_exceeded(0, 2));
        assert!(!id_headroom_exceeded(cap - 2, 2));
        assert!(id_headroom_exceeded(cap - 1, 2));
        assert!(id_headroom_exceeded(cap, 1));
        assert!(id_headroom_exceeded(cap + 7, 1));
        // A real builder is nowhere near the cap.
        let mut b = KbBuilder::new();
        b.class("c");
        assert!(b.check_id_headroom(2).is_ok());
    }

    #[test]
    fn duplicate_facts_are_deduped() {
        let mut b = KbBuilder::new();
        let c = b.class("c");
        let p = b.property("p");
        let a = b.entity("A", &[c]);
        let z = b.entity("Z", &[c]);
        b.fact(a, p, z);
        b.fact(a, p, z);
        let kb = b.finalize();
        assert_eq!(kb.num_facts(), 1);
        assert_eq!(kb.facts_of(a).len(), 1);
    }

    #[test]
    fn entity_redeclaration_merges_types() {
        let mut b = KbBuilder::new();
        let c1 = b.class("c1");
        let c2 = b.class("c2");
        let a = b.entity("A", &[c1]);
        let a2 = b.entity("A", &[c2]);
        assert_eq!(a, a2);
        let kb = b.finalize();
        assert!(kb.has_type(a, c1));
        assert!(kb.has_type(a, c2));
        assert_eq!(kb.num_entities(), 1);
    }

    #[test]
    fn labeled_entities_disambiguate() {
        let mut b = KbBuilder::new();
        let player = b.class("player");
        let racer = b.class("racer");
        let r1 = b.entity_labeled("Rossi_(player)", "Rossi", &[player]);
        let r2 = b.entity_labeled("Rossi_(racer)", "Rossi", &[racer]);
        assert_ne!(r1, r2);
        let kb = b.finalize();
        let hits = kb.resources_by_label("Rossi");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn finalize_builds_coherence_maxima() {
        let mut b = KbBuilder::new();
        let country = b.class("country");
        let capital = b.class("capital");
        let p = b.property("hasCapital");
        let italy = b.entity("Italy", &[country]);
        let rome = b.entity("Rome", &[capital]);
        b.fact(italy, p, rome);
        let kb = b.finalize();
        assert!(kb.sub_coherence(country, p) > 0.5);
        assert!(kb.obj_coherence(capital, p) > 0.5);
        assert_eq!(kb.coherence().max_sub(p), kb.sub_coherence(country, p));
    }

    #[test]
    fn audited_subclass_drops_cycle_edge_and_records_it() {
        let mut b = KbBuilder::new();
        let a = b.class("a");
        let c = b.class("c");
        let d = b.class("d");
        assert!(b.subclass_audited(a, c));
        assert!(b.subclass_audited(c, d));
        // d -> a closes the cycle: dropped, not fatal.
        assert!(!b.subclass_audited(d, a));
        // Self-loop: dropped, flagged as trivial.
        assert!(!b.subclass_audited(a, a));
        let (kb, audit) = b.finalize_audited();
        assert!(kb.class_hierarchy().is_a(a.0, d.0));
        assert!(!kb.class_hierarchy().is_a(d.0, a.0));
        assert_eq!(audit.broken_edges.len(), 2);
        assert_eq!(audit.broken_edges[0].child, "d");
        assert_eq!(audit.broken_edges[0].parent, "a");
        assert!(!audit.broken_edges[0].self_loop);
        assert!(audit.broken_edges[1].self_loop);
        assert_eq!(audit.broken_edges[1].child, "a");
    }

    #[test]
    fn audited_subproperty_names_properties() {
        let mut b = KbBuilder::new();
        let p = b.property("p");
        let q = b.property("q");
        assert!(b.subproperty_audited(p, q));
        assert!(!b.subproperty_audited(q, p));
        let (_, audit) = b.finalize_audited();
        assert_eq!(audit.broken_edges.len(), 1);
        assert_eq!(audit.broken_edges[0].hierarchy, "subPropertyOf");
        assert_eq!(audit.broken_edges[0].child, "q");
    }

    #[test]
    fn finalize_audited_reports_label_collisions() {
        let mut b = KbBuilder::new();
        let c = b.class("c");
        b.entity_labeled("Rossi_(player)", "Rossi", &[c]);
        b.entity_labeled("Rossi_(racer)", "Rossi", &[c]);
        b.entity("Pirlo", &[c]);
        let (_, audit) = b.finalize_audited();
        assert_eq!(audit.label_collisions.len(), 1);
        let col = &audit.label_collisions[0];
        assert_eq!(col.label, "Rossi");
        assert_eq!(
            col.resources,
            vec!["Rossi_(player)".to_string(), "Rossi_(racer)".to_string()]
        );
        assert!(!audit.is_clean());
    }

    #[test]
    fn collisions_are_the_labels_several_resources_carry() {
        let spellings = [
            "Rossi", "rossi", "ROSSI ", "Pirlo", "Rossi", "", "pirlo", "Ro ssi",
        ];
        let labels: Vec<&str> = (0..200).map(|i| spellings[(i * 7 + i / 5) % 8]).collect();
        let mut b = KbBuilder::new();
        for (i, label) in labels.iter().enumerate() {
            b.entity_labeled(&format!("e{i}"), label, &[]);
        }
        // Reference: group every resource by its exact label.
        let mut by_label: HashMap<&str, Vec<String>> = HashMap::new();
        for (i, label) in labels.iter().enumerate() {
            by_label.entry(label).or_default().push(format!("e{i}"));
        }
        let mut want: Vec<LabelCollision> = by_label
            .into_iter()
            .filter(|(_, rs)| rs.len() > 1)
            .map(|(label, resources)| LabelCollision {
                label: label.to_string(),
                resources,
            })
            .collect();
        want.sort_by(|a, b| a.label.cmp(&b.label));
        let (_, audit) = b.finalize_audited();
        assert_eq!(audit.label_collisions, want);
        assert_eq!(
            audit.label_collisions.len(),
            7,
            "every distinct spelling recurs"
        );
    }

    #[test]
    fn clean_build_audits_clean() {
        let mut b = KbBuilder::new();
        let c = b.class("c");
        b.entity("A", &[c]);
        let (_, audit) = b.finalize_audited();
        assert!(audit.is_clean());
    }

    #[test]
    fn empty_kb_finalizes() {
        let kb = KbBuilder::new().finalize();
        assert_eq!(kb.num_entities(), 0);
        assert_eq!(kb.num_facts(), 0);
        assert!(kb.candidate_resources("anything").is_empty());
    }
}
