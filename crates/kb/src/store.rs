//! The knowledge base proper: entity/class/property arenas plus every index
//! the KATARA algorithms probe.
//!
//! Construction goes through [`crate::builder::KbBuilder`]; a finalized
//! [`Kb`] answers all §4.1 query shapes in (amortized) constant or
//! output-linear time, and supports the §6.1 *enrichment* writes
//! ([`Kb::add_fact`], [`Kb::add_entity`]).
//!
//! The fact indexes are the dictionary-encoded columnar arenas of the
//! `columnar` module (DESIGN.md §5i), owned by [`Kb`] directly: `finalize`
//! packs them once into sorted CSR rows and SPO permutations, and
//! copy-on-write overlays absorb the enrichment writes.

use crate::coherence::CoherenceTable;
use crate::columnar::{CsrRows, NormIndex, PairCsr};
use crate::error::KbError;
use crate::ids::{ClassId, LiteralId, PropertyId, ResourceId};
use crate::interner::Interner;
use crate::journal::{DeltaOp, EnrichmentDelta};
use crate::label_index::LabelIndex;
use crate::ontology::Hierarchy;
use crate::plan::CardStats;
use crate::query::Object;
use crate::sim;

/// An immutable-schema, enrichable-facts knowledge base.
///
/// See the crate docs for the supported RDFS fragment. All `Vec`-indexed
/// fields are dense over the respective id space.
#[derive(Debug, Clone)]
pub struct Kb {
    pub(crate) name: String,
    pub(crate) resources: Interner,
    pub(crate) classes: Interner,
    pub(crate) props: Interner,
    pub(crate) literals: Interner,
    /// Human-readable label per resource (defaults to the resource name).
    pub(crate) labels: Vec<String>,
    pub(crate) label_index: LabelIndex,
    pub(crate) class_hier: Hierarchy,
    pub(crate) prop_hier: Hierarchy,
    /// Direct (asserted) types per resource.
    pub(crate) direct_types: Vec<Vec<ClassId>>,
    /// Asserted types *plus* superclass closure, per resource (sorted at
    /// finalize; enrichment appends unsorted).
    pub(crate) types_closure: CsrRows<ClassId>,
    /// ENT(T): entities per class, including instances of subclasses.
    pub(crate) class_entities: CsrRows<ResourceId>,
    /// Outgoing facts per subject (property stored as asserted).
    pub(crate) out_edges: CsrRows<(PropertyId, Object)>,
    /// Incoming resource facts per object (property stored as asserted).
    pub(crate) in_edges: CsrRows<(PropertyId, ResourceId)>,
    /// SPO permutation of the resource facts: (subject, object) ->
    /// asserted properties.
    pub(crate) rr: PairCsr<ResourceId>,
    /// SPO permutation of the literal facts.
    pub(crate) rl: PairCsr<LiteralId>,
    /// subENT(P): distinct subject entities per property (subproperty
    /// closure folded upward).
    pub(crate) prop_subjects: CsrRows<ResourceId>,
    /// objENT(P): distinct object entities per property.
    pub(crate) prop_objects: CsrRows<ResourceId>,
    /// normalize(lit) -> LiteralIds of the spellings, for Q_rels^2.
    pub(crate) literal_norm: NormIndex,
    /// Frozen cardinality stats feeding the probe planner.
    pub(crate) stats: CardStats,
    pub(crate) coherence: CoherenceTable,
    pub(crate) sim_threshold: f64,
    /// Count of facts (triples with a property), for reporting.
    pub(crate) fact_count: usize,
    /// Monotonic mutation counter, bumped by every enrichment write that
    /// changes observable query results. Snapshot layers (see
    /// `katara-core`'s `resolve` module) record the version they were
    /// built against and are patched with the writes when it has moved.
    pub(crate) version: u64,
    /// When `Some`, every state-changing enrichment write is also
    /// recorded here as a [`DeltaOp`] (see
    /// [`Kb::begin_delta_capture`]). `None` outside a capture window.
    pub(crate) capture: Option<Vec<DeltaOp>>,
}

impl Kb {
    /// The KB's display name (e.g. `"yago-like"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of entities, the paper's `N`.
    pub fn num_entities(&self) -> usize {
        self.labels.len()
    }

    /// Number of classes (the paper contrasts Yago's 374K vs DBpedia's 865).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of distinct properties.
    pub fn num_properties(&self) -> usize {
        self.props.len()
    }

    /// Number of asserted facts (triples whose predicate is a property).
    pub fn num_facts(&self) -> usize {
        self.fact_count
    }

    /// Number of direct type assertions across all entities. Together
    /// with [`Kb::num_facts`] and [`Kb::num_entities`] this gives the
    /// triple count a serialized dump would carry.
    pub fn num_type_assertions(&self) -> usize {
        self.direct_types.iter().map(Vec::len).sum()
    }

    /// The similarity threshold used for approximate label matching.
    pub fn sim_threshold(&self) -> f64 {
        self.sim_threshold
    }

    /// The current mutation version. Starts at 0 on finalize and moves
    /// whenever an enrichment write ([`Kb::add_fact`],
    /// [`Kb::add_literal_fact`], [`Kb::add_entity`], [`Kb::add_type`])
    /// actually changes the KB; idempotent re-adds leave it untouched, so
    /// caches keyed on the version survive no-op writes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The canonical (unique) name of a resource.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        self.resources.resolve(r.index())
    }

    /// The human-readable label of a resource (`rdfs:label`).
    pub fn label_of(&self, r: ResourceId) -> &str {
        &self.labels[r.index()]
    }

    /// The name of a class (already the crowd-readable description; the
    /// paper strips URI prefixes, we never add them).
    pub fn class_name(&self, c: ClassId) -> &str {
        self.classes.resolve(c.index())
    }

    /// The name of a property.
    pub fn property_name(&self, p: PropertyId) -> &str {
        self.props.resolve(p.index())
    }

    /// The string behind a literal id.
    pub fn literal_value(&self, l: LiteralId) -> &str {
        self.literals.resolve(l.index())
    }

    /// Look up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes.get(name).map(ClassId::from_index)
    }

    /// Look up a property by name.
    pub fn property_by_name(&self, name: &str) -> Option<PropertyId> {
        self.props.get(name).map(PropertyId::from_index)
    }

    /// Look up a resource by its canonical name (not its label).
    pub fn resource_by_name(&self, name: &str) -> Option<ResourceId> {
        self.resources.get(name).map(ResourceId::from_index)
    }

    /// Resources whose normalized label equals the normalized query.
    pub fn resources_by_label(&self, label: &str) -> &[ResourceId] {
        self.label_index.exact(label)
    }

    /// The class hierarchy.
    pub fn class_hierarchy(&self) -> &Hierarchy {
        &self.class_hier
    }

    /// The property hierarchy.
    pub fn property_hierarchy(&self) -> &Hierarchy {
        &self.prop_hier
    }

    /// Direct (asserted) types of a resource.
    pub fn direct_types(&self, r: ResourceId) -> &[ClassId] {
        &self.direct_types[r.index()]
    }

    /// Types of a resource including all superclasses (`rdfs:type/subClassOf*`).
    pub fn types_closure(&self, r: ResourceId) -> &[ClassId] {
        self.types_closure.row(r.index())
    }

    /// `type(r) = c` or `subclassOf(type(r), c)` — condition 2 of §3.2.
    pub fn has_type(&self, r: ResourceId, c: ClassId) -> bool {
        self.types_closure.contains_sorted(r.index(), c)
    }

    /// ENT(T): entities of class `c`, including subclass instances.
    pub fn entities_of_class(&self, c: ClassId) -> &[ResourceId] {
        self.class_entities.row(c.index())
    }

    /// |ENT(T)| — O(1) per-class cardinality off the index offsets.
    pub fn class_size(&self, c: ClassId) -> usize {
        self.entities_of_class(c).len()
    }

    /// subENT(P): distinct entities appearing as subject of `p` (including
    /// via subproperties).
    pub fn subjects_of_property(&self, p: PropertyId) -> &[ResourceId] {
        self.prop_subjects.row(p.index())
    }

    /// objENT(P): distinct entities appearing as object of `p`.
    pub fn objects_of_property(&self, p: PropertyId) -> &[ResourceId] {
        self.prop_objects.row(p.index())
    }

    /// Outgoing facts of a subject, as asserted.
    pub fn facts_of(&self, s: ResourceId) -> &[(PropertyId, Object)] {
        self.out_edges.row(s.index())
    }

    /// Incoming resource-object facts of `o`, as asserted.
    pub fn facts_into(&self, o: ResourceId) -> &[(PropertyId, ResourceId)] {
        self.in_edges.row(o.index())
    }

    /// All subjects `s` with `holds(s, p, o)` — the reverse of
    /// [`Kb::objects_linked`], used by instance-graph expansion.
    pub fn subjects_linking(&self, o: ResourceId, p: PropertyId) -> Vec<ResourceId> {
        let mut out = Vec::new();
        let mut seen = crate::dedup::OrderedDedup::new();
        for &(p2, s) in self.facts_into(o) {
            if self.prop_hier.is_a(p2.0, p.0) {
                seen.push(s, &mut out);
            }
        }
        out
    }

    /// The coherence table (subSC/objSC of §4.2), precomputed at build time.
    pub fn coherence(&self) -> &CoherenceTable {
        &self.coherence
    }

    /// subSC(T, P): how likely an entity of `t` appears as subject of `p`.
    pub fn sub_coherence(&self, t: ClassId, p: PropertyId) -> f64 {
        self.coherence.sub(t, p)
    }

    /// objSC(T, P): how likely an entity of `t` appears as object of `p`.
    pub fn obj_coherence(&self, t: ClassId, p: PropertyId) -> f64 {
        self.coherence.obj(t, p)
    }

    /// Iterate over all class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> {
        (0..self.classes.len()).map(ClassId::from_index)
    }

    /// Iterate over all property ids.
    pub fn property_ids(&self) -> impl Iterator<Item = PropertyId> {
        (0..self.props.len()).map(PropertyId::from_index)
    }

    /// Iterate over all resource ids.
    pub fn resource_ids(&self) -> impl Iterator<Item = ResourceId> {
        (0..self.labels.len()).map(ResourceId::from_index)
    }

    // ---------------------------------------------------------------
    // Enrichment (§6.1): crowd-confirmed facts and values are inserted
    // at runtime and visible to every subsequent query. Coherence
    // statistics stay frozen, mirroring the paper's offline computation.
    // ---------------------------------------------------------------

    /// Start recording enrichment writes. Until [`Kb::take_delta`],
    /// every state-changing [`Kb::add_fact`] / [`Kb::add_literal_fact`]
    /// / [`Kb::add_entity`] / [`Kb::add_type`] also appends a
    /// [`DeltaOp`] (by name, so it replays onto any store with the same
    /// schema). Idempotent no-op writes are not recorded — a captured
    /// delta replays to exactly the same state *and version*.
    pub fn begin_delta_capture(&mut self) {
        self.capture = Some(Vec::new());
    }

    /// The writes captured so far in the open capture window, in capture
    /// order (empty outside one). Every enrichment write that bumps
    /// [`Kb::version`] appends exactly one op, so a reader that remembers
    /// how many ops it has consumed can follow the KB write by write.
    pub fn captured_ops(&self) -> &[DeltaOp] {
        self.capture.as_deref().unwrap_or_default()
    }

    /// Stop recording and return everything captured since
    /// [`Kb::begin_delta_capture`] (empty if capture was never started).
    pub fn take_delta(&mut self) -> EnrichmentDelta {
        EnrichmentDelta {
            ops: self.capture.take().unwrap_or_default(),
        }
    }

    fn record(&mut self, op: impl FnOnce(&Kb) -> DeltaOp) {
        if self.capture.is_some() {
            let op = op(self);
            if let Some(ops) = self.capture.as_mut() {
                ops.push(op);
            }
        }
    }

    /// Replay a captured delta onto this store, resolving every op by
    /// name. Returns the number of ops that actually changed state
    /// (all of them, when replaying onto the exact capture base).
    /// Errors with [`KbError::UnknownName`] when an op references a
    /// class or property this store does not know — replay never
    /// invents schema — and with [`KbError::IdSpaceExhausted`] when an
    /// op would overflow a dense id space (the journal is an ingestion
    /// boundary: adversarial input gets a typed error, not a panic).
    pub fn apply_delta(&mut self, delta: &EnrichmentDelta) -> Result<usize, KbError> {
        let mut changed = 0usize;
        for op in &delta.ops {
            match op {
                DeltaOp::Entity { name, label } => {
                    self.ensure_id_headroom()?;
                    let before = self.version;
                    self.add_entity(name, label, &[]);
                    if self.version != before {
                        changed += 1;
                    }
                }
                DeltaOp::Type { resource, class } => {
                    let r = self.require_resource(resource)?;
                    let c = self
                        .class_by_name(class)
                        .ok_or_else(|| KbError::UnknownName {
                            kind: "class",
                            name: class.clone(),
                        })?;
                    if self.add_type(r, c) {
                        changed += 1;
                    }
                }
                DeltaOp::Fact {
                    subject,
                    property,
                    object,
                } => {
                    let s = self.require_resource(subject)?;
                    let p = self.require_property(property)?;
                    let o = self.require_resource(object)?;
                    if self.add_fact(s, p, o) {
                        changed += 1;
                    }
                }
                DeltaOp::LiteralFact {
                    subject,
                    property,
                    literal,
                } => {
                    self.ensure_id_headroom()?;
                    let s = self.require_resource(subject)?;
                    let p = self.require_property(property)?;
                    if self.add_literal_fact(s, p, literal) {
                        changed += 1;
                    }
                }
            }
        }
        Ok(changed)
    }

    /// Guard the id spaces an enrichment op can grow (resources via
    /// `Entity`, literals via `LiteralFact`) against dense-`u32`
    /// exhaustion, so replay surfaces [`KbError::IdSpaceExhausted`]
    /// instead of panicking mid-ingest.
    fn ensure_id_headroom(&self) -> Result<(), KbError> {
        for (len, kind) in [
            (self.resources.len(), ResourceId::KIND),
            (self.literals.len(), LiteralId::KIND),
        ] {
            if len >= u32::MAX as usize {
                return Err(KbError::IdSpaceExhausted { kind, index: len });
            }
        }
        Ok(())
    }

    /// Resolve a delta op's resource name, including the canonical-name
    /// fallback [`Self::apply_delta`] uses (`Rome` ↔ `kb:Rome` after a
    /// checkpoint rename). `None` when the name is unknown under either
    /// spelling — the snapshot-patching path in `katara-core` uses this to
    /// map journaled [`crate::journal::DeltaOp`]s back onto cached
    /// candidate lists.
    pub fn resolve_resource_name(&self, name: &str) -> Option<ResourceId> {
        self.require_resource(name).ok()
    }

    fn require_resource(&self, name: &str) -> Result<ResourceId, KbError> {
        if let Some(r) = self.resource_by_name(name) {
            return Ok(r);
        }
        // Canonical-name fallback: checkpoint reload renames plain
        // entities to their serialized IRI form (`Rome` → `kb:Rome`,
        // spaces percent-encoded). A delta captured against a
        // pre-compaction clone may still carry the plain name; the two
        // spellings denote the same entity, so resolve through the
        // canonical one before giving up. Never fires when the plain
        // name exists (checked first), so no ambiguity is introduced.
        if !name.contains(':') {
            let canonical = format!("kb:{}", name.replace(' ', "%20"));
            if let Some(r) = self.resource_by_name(&canonical) {
                return Ok(r);
            }
        }
        Err(KbError::UnknownName {
            kind: "resource",
            name: name.to_string(),
        })
    }

    fn require_property(&self, name: &str) -> Result<PropertyId, KbError> {
        self.property_by_name(name)
            .ok_or_else(|| KbError::UnknownName {
                kind: "property",
                name: name.to_string(),
            })
    }

    /// Ratchet the version forward to at least `v` (never backward).
    /// Recovery uses this to restore the checkpoint's version before
    /// replaying journal records on top.
    pub fn advance_version_to(&mut self, v: u64) {
        self.version = self.version.max(v);
    }

    /// Insert a new fact `p(s, o)`. Idempotent. Updates the fact indexes
    /// and subENT/objENT (with subproperty fold-up) but not the coherence
    /// table.
    pub fn add_fact(&mut self, s: ResourceId, p: PropertyId, o: ResourceId) -> bool {
        if !self.rr.insert(s, o, p) {
            return false;
        }
        self.version += 1;
        self.record(|kb| DeltaOp::Fact {
            subject: kb.resource_name(s).to_string(),
            property: kb.property_name(p).to_string(),
            object: kb.resource_name(o).to_string(),
        });
        self.out_edges.push(s.index(), (p, Object::Resource(o)));
        self.in_edges.push(o.index(), (p, s));
        self.fact_count += 1;
        let mut ps = vec![p.0];
        ps.extend(self.prop_hier.ancestors(p.0).map(|(a, _)| a));
        for pa in ps {
            self.prop_subjects.push_unique(pa as usize, s);
            self.prop_objects.push_unique(pa as usize, o);
        }
        true
    }

    /// Insert a new literal fact `p(s, lit)`. Idempotent.
    pub fn add_literal_fact(&mut self, s: ResourceId, p: PropertyId, lit: &str) -> bool {
        let lid = LiteralId::from_index(self.literals.intern(lit));
        let norm = sim::normalize(lit);
        self.literal_norm.insert(&norm, lid);
        if !self.rl.insert(s, lid, p) {
            return false;
        }
        self.version += 1;
        self.record(|kb| DeltaOp::LiteralFact {
            subject: kb.resource_name(s).to_string(),
            property: kb.property_name(p).to_string(),
            literal: lit.to_string(),
        });
        self.out_edges.push(s.index(), (p, Object::Literal(lid)));
        self.fact_count += 1;
        let mut ps = vec![p.0];
        ps.extend(self.prop_hier.ancestors(p.0).map(|(a, _)| a));
        for pa in ps {
            self.prop_subjects.push_unique(pa as usize, s);
        }
        true
    }

    /// Create a brand-new entity with the given unique name, label and
    /// direct types (used when the crowd confirms a value missing from the
    /// KB). Returns the existing id if the name is already taken.
    pub fn add_entity(&mut self, name: &str, label: &str, types: &[ClassId]) -> ResourceId {
        if let Some(r) = self.resource_by_name(name) {
            for &t in types {
                self.add_type(r, t);
            }
            return r;
        }
        let r = ResourceId::from_index(self.resources.intern(name));
        debug_assert_eq!(r.index(), self.labels.len());
        self.version += 1;
        self.record(|_| DeltaOp::Entity {
            name: name.to_string(),
            label: label.to_string(),
        });
        self.labels.push(label.to_string());
        self.label_index.insert(label, r);
        // Fact-index rows past the base arenas are implicitly empty.
        self.direct_types.push(Vec::new());
        for &t in types {
            self.add_type(r, t);
        }
        r
    }

    /// Assert that `r` has (possibly additional) direct type `t`,
    /// maintaining the type closure and ENT sets. Returns whether the
    /// assertion was new (mirrors [`Kb::add_fact`]).
    pub fn add_type(&mut self, r: ResourceId, t: ClassId) -> bool {
        if self.direct_types[r.index()].contains(&t) {
            return false;
        }
        self.version += 1;
        self.record(|kb| DeltaOp::Type {
            resource: kb.resource_name(r).to_string(),
            class: kb.class_name(t).to_string(),
        });
        self.direct_types[r.index()].push(t);
        let mut cs = vec![t.0];
        cs.extend(self.class_hier.ancestors(t.0).map(|(a, _)| a));
        for c in cs {
            let c = ClassId(c);
            if !self.types_closure.contains_sorted(r.index(), c) {
                self.types_closure.push(r.index(), c);
                self.class_entities.push_unique(c.index(), r);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::KbBuilder;
    use crate::query::Object;

    #[test]
    fn counts_and_names() {
        let mut b = KbBuilder::new().with_name("mini");
        let country = b.class("country");
        let capital = b.class("capital");
        let has_capital = b.property("hasCapital");
        let italy = b.entity("Italy", &[country]);
        let rome = b.entity("Rome", &[capital]);
        b.fact(italy, has_capital, rome);
        let kb = b.finalize();

        assert_eq!(kb.name(), "mini");
        assert_eq!(kb.num_entities(), 2);
        assert_eq!(kb.num_classes(), 2);
        assert_eq!(kb.num_properties(), 1);
        assert_eq!(kb.num_facts(), 1);
        assert_eq!(kb.num_type_assertions(), 2);
        assert_eq!(kb.class_name(country), "country");
        assert_eq!(kb.property_name(has_capital), "hasCapital");
        assert_eq!(kb.label_of(italy), "Italy");
        assert_eq!(kb.resource_name(rome), "Rome");
    }

    #[test]
    fn type_closure_through_hierarchy() {
        let mut b = KbBuilder::new();
        let location = b.class("location");
        let capital = b.class("capital");
        b.subclass(capital, location).unwrap();
        let rome = b.entity("Rome", &[capital]);
        let kb = b.finalize();

        assert!(kb.has_type(rome, capital));
        assert!(kb.has_type(rome, location));
        assert_eq!(kb.entities_of_class(location), &[rome]);
        assert_eq!(kb.class_size(capital), 1);
    }

    #[test]
    fn property_ent_sets_fold_up() {
        let mut b = KbBuilder::new();
        let c = b.class("thing");
        let located_in = b.property("locatedIn");
        let capital_of = b.property("capitalOf");
        b.subproperty(capital_of, located_in).unwrap();
        let rome = b.entity("Rome", &[c]);
        let italy = b.entity("Italy", &[c]);
        b.fact(rome, capital_of, italy);
        let kb = b.finalize();

        // capitalOf(rome, italy) implies rome ∈ subENT(locatedIn).
        assert_eq!(kb.subjects_of_property(located_in), &[rome]);
        assert_eq!(kb.objects_of_property(located_in), &[italy]);
        assert_eq!(kb.subjects_of_property(capital_of), &[rome]);
    }

    #[test]
    fn enrichment_fact_is_visible() {
        let mut b = KbBuilder::new();
        let country = b.class("country");
        let capital = b.class("capital");
        let has_capital = b.property("hasCapital");
        let sa = b.entity("S. Africa", &[country]);
        let pretoria = b.entity("Pretoria", &[capital]);
        let mut kb = b.finalize();

        assert!(!kb.holds(sa, has_capital, pretoria));
        assert!(kb.add_fact(sa, has_capital, pretoria));
        assert!(kb.holds(sa, has_capital, pretoria));
        // Idempotent.
        assert!(!kb.add_fact(sa, has_capital, pretoria));
        assert_eq!(kb.num_facts(), 1);
    }

    #[test]
    fn enrichment_entity_is_queryable() {
        let mut b = KbBuilder::new();
        let capital = b.class("capital");
        b.entity("Rome", &[capital]);
        let mut kb = b.finalize();

        let juneau = kb.add_entity("Juneau", "Juneau", &[capital]);
        assert!(kb.has_type(juneau, capital));
        assert_eq!(kb.resources_by_label("juneau"), &[juneau]);
        assert_eq!(kb.class_size(capital), 2);
        // Re-adding returns the same id.
        assert_eq!(kb.add_entity("Juneau", "Juneau", &[capital]), juneau);
    }

    #[test]
    fn version_moves_only_on_real_mutation() {
        let mut b = KbBuilder::new();
        let country = b.class("country");
        let capital = b.class("capital");
        let has_capital = b.property("hasCapital");
        let sa = b.entity("S. Africa", &[country]);
        let pretoria = b.entity("Pretoria", &[capital]);
        let mut kb = b.finalize();

        assert_eq!(kb.version(), 0, "finalize starts at version 0");
        assert!(kb.add_fact(sa, has_capital, pretoria));
        let v1 = kb.version();
        assert!(v1 > 0);
        // Idempotent re-add: results unchanged, version unchanged.
        assert!(!kb.add_fact(sa, has_capital, pretoria));
        assert_eq!(kb.version(), v1);
        // Re-adding an existing entity with an existing type: no change.
        kb.add_entity("Pretoria", "Pretoria", &[capital]);
        assert_eq!(kb.version(), v1);
        // A brand-new entity moves the version.
        kb.add_entity("Juneau", "Juneau", &[capital]);
        assert!(kb.version() > v1);
    }

    #[test]
    fn delta_capture_replays_to_identical_state_and_version() {
        let build = || {
            let mut b = KbBuilder::new();
            let person = b.class("person");
            let country = b.class("country");
            let nat = b.property("nationality");
            let rossi = b.entity("Rossi", &[person]);
            let italy = b.entity("Italy", &[country]);
            b.fact(rossi, nat, italy);
            b.finalize()
        };
        let mut live = build();
        let v0 = live.version();
        assert!(live.captured_ops().is_empty(), "no capture window open");
        live.begin_delta_capture();
        let pirlo = live.add_entity("Pirlo", "Pirlo", &[]);
        let person = live.class_by_name("person").unwrap();
        let nat = live.property_by_name("nationality").unwrap();
        let italy = live.resource_by_name("Italy").unwrap();
        live.add_type(pirlo, person);
        live.add_fact(pirlo, nat, italy);
        live.add_literal_fact(pirlo, nat, "italian");
        // No-op re-adds must not be recorded.
        live.add_fact(pirlo, nat, italy);
        live.add_entity("Pirlo", "Pirlo", &[person]);
        // The open window is readable, one op per version bump.
        assert_eq!(live.captured_ops().len() as u64, live.version() - v0);
        let delta = live.take_delta();
        assert_eq!(delta.len(), 4);
        assert!(
            live.captured_ops().is_empty(),
            "take_delta closes the window"
        );

        let mut replayed = build();
        let changed = replayed.apply_delta(&delta).unwrap();
        assert_eq!(changed, 4);
        assert_eq!(replayed.version(), live.version());
        assert_eq!(
            crate::ntriples::to_string(&replayed),
            crate::ntriples::to_string(&live)
        );
        // Applying again is idempotent on state but not an error.
        assert_eq!(replayed.apply_delta(&delta).unwrap(), 0);
    }

    #[test]
    fn apply_delta_rejects_unknown_schema_names() {
        use crate::journal::{DeltaOp, EnrichmentDelta};
        let mut b = KbBuilder::new();
        b.class("person");
        let mut kb = b.finalize();
        let delta = EnrichmentDelta {
            ops: vec![DeltaOp::Type {
                resource: "ghost".into(),
                class: "person".into(),
            }],
        };
        let err = kb.apply_delta(&delta).unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn apply_delta_resolves_plain_names_through_canonical_iris() {
        use crate::journal::{DeltaOp, EnrichmentDelta};
        // A checkpoint reload renames enriched entities to their IRI
        // form; deltas captured before the reload still replay.
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let country = b.class("country");
        let nat = b.property("nationality");
        let rossi = b.entity("Rossi", &[person]);
        let italy = b.entity("Italy", &[country]);
        b.fact(rossi, nat, italy);
        let mut live = b.finalize();
        live.add_entity("New Town", "New Town", &[]);
        let mut target =
            crate::ntriples::parse("reloaded", &crate::ntriples::to_string(&live)).unwrap();
        assert!(target.resource_by_name("New Town").is_none());
        assert!(target.resource_by_name("kb:New%20Town").is_some());
        let delta = EnrichmentDelta {
            ops: vec![DeltaOp::Fact {
                subject: "New Town".into(),
                property: "kb:nationality".into(),
                object: "Italy".into(),
            }],
        };
        assert_eq!(target.apply_delta(&delta).unwrap(), 1);
    }

    #[test]
    fn literal_facts_round_trip() {
        let mut b = KbBuilder::new();
        let person = b.class("person");
        let height = b.property("hasHeight");
        let rossi = b.entity("Rossi", &[person]);
        b.literal_fact(rossi, height, "1.78");
        let kb = b.finalize();

        let facts = kb.facts_of(rossi);
        assert_eq!(facts.len(), 1);
        match facts[0].1 {
            Object::Literal(l) => assert_eq!(kb.literal_value(l), "1.78"),
            Object::Resource(_) => panic!("expected literal"),
        }
    }
}
