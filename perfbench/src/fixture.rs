//! Seeded inputs. Everything — world, KB, table, corruption, crowd,
//! slices and edit streams — is a pure function of the run seed; seed 0
//! reproduces the repository's Yago-scale `resolve` bench fixture
//! (`katara_bench::resolve_fixture`) exactly.
//!
//! The library only ever sees the generated N-Triples text and CSV; the
//! generator-side truth (ground truth, corruption log, world facts) stays
//! here for the simulated crowd and the output checks.

use std::sync::Arc;
use std::time::Instant;

use katara_crowd::{Answer, Crowd, CrowdConfig, Oracle, Question};
use katara_datagen::{
    build_kb, person_table, KbFlavor, KbGenConfig, TableGroundTruth, TableOracle, World,
    WorldConfig, WorldFacts,
};
use katara_kb::{ntriples, sim, ClassId, Kb, PropertyId};
use katara_table::corrupt::{corrupt_table, CorruptionConfig, CorruptionLog};
use katara_table::Table;

/// Rows of the generated Person table.
const TABLE_ROWS: usize = 4_000;

/// The KB flavor of the fixture.
const FLAVOR: KbFlavor = KbFlavor::YagoLike;

/// The seeds of today's fixture, used unchanged by seed 0.
const WORLD_SEED: u64 = 0x5EED;
const TABLE_SEED: u64 = 0xBE7C;
const CORRUPTION_SEED: u64 = 0xBAD_5EED;
const CROWD_SEED: u64 = 0x5EED;

/// Derive a component seed: `base` itself for run seed 0, an unrelated
/// stream for every other run seed.
pub fn derive(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        base
    } else {
        base ^ splitmix64(seed ^ splitmix64(base))
    }
}

/// One SplitMix64 step (a bijective 64-bit mixer).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Ground-truth column types and `(subject, object, property)` edges,
/// named as a KB names them.
pub type TruthNames<'k> = (Vec<Option<&'k str>>, Vec<(usize, usize, &'k str)>);

/// The inputs of one run.
pub struct Inputs {
    /// Run seed.
    pub seed: u64,
    /// The KB as N-Triples text.
    pub nt: String,
    /// The corrupted Person table as CSV text.
    pub csv: String,
    /// The same table, for client-side slicing and edit streams.
    pub table: Table,
    /// Semantic ground truth of the table.
    pub truth: TableGroundTruth,
    /// The injected errors.
    pub log: CorruptionLog,
    /// KB generation config (for ground-truth relationship rendering).
    pub kbgen: KbGenConfig,
    /// Oracle facts, when the workload asked for them.
    pub facts: Option<Arc<WorldFacts>>,
    /// Wall time spent generating (not part of set-up).
    pub generate_s: f64,
}

impl Inputs {
    /// Generate the inputs for `seed`; `world_facts` builds the expert
    /// crowd's fact base too (a few seconds).
    pub fn generate(seed: u64, world_facts: bool) -> Inputs {
        let start = Instant::now();
        let world = World::generate(WorldConfig {
            seed: derive(WORLD_SEED, seed),
            ..WorldConfig::yago_scale()
        });
        let base = KbGenConfig::yago_scale();
        let kbgen = KbGenConfig {
            seed: derive(base.seed, seed),
            ..base
        };
        let nt = ntriples::to_string(&build_kb(&world, &kbgen));
        let mut generated = person_table(&world, TABLE_ROWS, derive(TABLE_SEED, seed));
        // The resolve fixture's typo-heavy recipe: typos miss the exact
        // label index and force fuzzy lookups.
        let log = corrupt_table(
            &mut generated.table,
            &CorruptionConfig {
                tuple_error_rate: 0.05,
                columns: vec![0, 1, 2, 3],
                w_domain_swap: 0.3,
                w_typo: 0.7,
                w_null: 0.0,
            },
            derive(CORRUPTION_SEED, seed),
        );
        let facts = world_facts.then(|| Arc::new(WorldFacts::build(&world)));
        let csv = katara_table::csv::to_string(&generated.table);
        Inputs {
            seed,
            nt,
            csv,
            table: generated.table,
            truth: generated.ground_truth,
            log,
            kbgen,
            facts,
            generate_s: start.elapsed().as_secs_f64(),
        }
    }

    /// The expert crowd of the resolve bench (`resolve_crowd`): perfect
    /// workers answering from the world facts, seeded per run.
    pub fn expert_crowd(&self) -> Crowd<LocalNames<TableOracle>> {
        let facts = self.facts.clone().expect("expert crowd needs world facts");
        let oracle = LocalNames(TableOracle::new(facts, self.truth.clone(), FLAVOR));
        Crowd::new(
            CrowdConfig {
                worker_accuracy: 1.0,
                seed: derive(CROWD_SEED, self.seed),
                ..CrowdConfig::default()
            },
            oracle,
        )
        .expect("expert crowd config is valid")
    }

    /// Ground-truth column types and relationships under the names `kb`
    /// gives them. A KB loaded from N-Triples keeps full IRIs as class
    /// and property names, while the generator's truth uses local names.
    pub fn truth_names<'k>(&self, kb: &'k Kb) -> TruthNames<'k> {
        let classes: std::collections::HashMap<&str, &str> = (0..kb.num_classes() as u32)
            .map(|i| kb.class_name(ClassId(i)))
            .map(|n| (ntriples::local_name(n), n))
            .collect();
        let properties: std::collections::HashMap<&str, &str> = (0..kb.num_properties() as u32)
            .map(|i| kb.property_name(PropertyId(i)))
            .map(|n| (ntriples::local_name(n), n))
            .collect();
        let types = self
            .truth
            .types_for(FLAVOR)
            .into_iter()
            .map(|t| t.and_then(|t| classes.get(t).copied()))
            .collect();
        let rels = self
            .truth
            .rels_for(&self.kbgen)
            .into_iter()
            .filter_map(|(i, j, r)| properties.get(r).map(|&p| (i, j, p)))
            .collect();
        (types, rels)
    }

    /// `n` disjoint slices of `rows` rows each, at seeded block offsets.
    pub fn slices(&self, n: usize, rows: usize) -> Vec<Table> {
        let blocks = self.table.num_rows() / rows;
        assert!(n <= blocks, "{n} slices of {rows} rows do not fit");
        let mut order: Vec<usize> = (0..blocks).collect();
        shuffle(&mut order, derive(0x0051_1CE5, self.seed));
        order[..n]
            .iter()
            .map(|&b| self.window(b * rows, rows))
            .collect()
    }

    /// `rows` consecutive rows at a seeded offset.
    pub fn seeded_window(&self, rows: usize) -> Table {
        let span = self.table.num_rows() - rows + 1;
        let start = (splitmix64(derive(0x3E55_1011, self.seed)) % span as u64) as usize;
        self.window(start, rows)
    }

    fn window(&self, start: usize, rows: usize) -> Table {
        let mut t = Table::new(self.table.name(), self.table.columns().to_vec());
        for r in &self.table.rows()[start..start + rows] {
            t.push_row(r.clone());
        }
        t
    }
}

/// Shows an oracle the crowd-display form of KB names (§5.1): the local
/// name of every class, property and object IRI in a question, as the
/// daemon's own oracle does.
#[derive(Debug)]
pub struct LocalNames<O>(pub O);

impl<O: Oracle> Oracle for LocalNames<O> {
    fn answer(&self, q: &Question) -> Answer {
        let local = |names: &[String]| -> Vec<String> {
            names
                .iter()
                .map(|c| {
                    c.split(' ')
                        .map(ntriples::local_name)
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect()
        };
        let shown = match q.clone() {
            Question::ColumnType {
                table,
                column,
                header,
                sample_rows,
                candidates,
            } => Question::ColumnType {
                candidates: local(&candidates),
                table,
                column,
                header,
                sample_rows,
            },
            Question::Relationship {
                table,
                columns,
                header,
                sample_rows,
                candidates,
            } => Question::Relationship {
                candidates: local(&candidates),
                table,
                columns,
                header,
                sample_rows,
            },
            Question::Fact {
                subject,
                property,
                object,
            } => Question::Fact {
                property: ntriples::local_name(&property).to_string(),
                object: ntriples::local_name(&object).to_string(),
                subject,
            },
        };
        self.0.answer(&shown)
    }
}

/// Fisher–Yates with a SplitMix64 stream.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Number of distinct normalized non-null cell values across `tables` —
/// the size of the resolution snapshot the library builds for them.
pub fn distinct_values(tables: &[Table]) -> usize {
    let mut seen = std::collections::HashSet::new();
    for row in tables.iter().flat_map(Table::rows) {
        for v in row {
            if let Some(s) = v.as_str() {
                seen.insert(sim::normalize(s));
            }
        }
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_historical_seeds() {
        assert_eq!(derive(WORLD_SEED, 0), WORLD_SEED);
        assert_eq!(derive(TABLE_SEED, 0), TABLE_SEED);
        assert_ne!(derive(TABLE_SEED, 1), TABLE_SEED);
        assert_ne!(derive(TABLE_SEED, 1), derive(CORRUPTION_SEED, 1));
        assert_eq!(derive(TABLE_SEED, 9), derive(TABLE_SEED, 9));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..40).collect();
        let mut b = a.clone();
        shuffle(&mut a, 3);
        shuffle(&mut b, 3);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
    }
}
