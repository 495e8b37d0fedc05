//! **Table 4** — number of variables that must be validated before one
//! pattern remains: MUVF (entropy scheduling, Algorithm 3) vs the AVI
//! baseline, per dataset family and KB.

use katara_core::validation::{validate_patterns, SchedulingStrategy, ValidationConfig};
use katara_datagen::KbFlavor;

use crate::corpus::Corpus;
use crate::experiments::{candidates_for, crowd_for, flavors, Algo};
use crate::report::MdTable;

/// One (dataset, flavor) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Dataset family.
    pub dataset: &'static str,
    /// KB flavor.
    pub flavor: KbFlavor,
    /// Total variables validated by MUVF across the family's tables.
    pub muvf: usize,
    /// Total variables validated by AVI.
    pub avi: usize,
}

/// The structured result.
#[derive(Debug, Clone, Default)]
pub struct Table4 {
    /// All cells.
    pub cells: Vec<Cell>,
}

/// Run the experiment (near-perfect crowd, as the paper's students).
pub fn run(corpus: &Corpus) -> Table4 {
    let mut out = Table4::default();
    for flavor in flavors() {
        let kb = corpus.kb(flavor);
        for (name, tables) in corpus.families() {
            let mut muvf = 0usize;
            let mut avi = 0usize;
            for (ti, g) in tables.iter().enumerate() {
                let cands = candidates_for(&g.table, &kb);
                let patterns = Algo::RankJoin.topk(&g.table, &kb, &cands, 5);
                if patterns.is_empty() {
                    continue;
                }
                for (strategy, sink) in [
                    (SchedulingStrategy::Muvf, &mut muvf),
                    (SchedulingStrategy::Avi, &mut avi),
                ] {
                    let mut crowd = crowd_for(corpus, g, flavor, 0.97, ti as u64);
                    let outcome = validate_patterns(
                        &g.table,
                        &kb,
                        patterns.clone(),
                        &mut crowd,
                        &ValidationConfig {
                            questions_per_variable: 3,
                            tuples_per_question: 5,
                            seed: ti as u64,
                        },
                        strategy,
                    );
                    *sink += outcome.variables_validated;
                }
            }
            out.cells.push(Cell {
                dataset: name,
                flavor,
                muvf,
                avi,
            });
        }
    }
    out
}

impl Table4 {
    /// Lookup one cell.
    pub fn cell(&self, dataset: &str, flavor: KbFlavor) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.dataset == dataset && c.flavor == flavor)
    }

    /// Render the Markdown section.
    pub fn render(&self) -> String {
        let mut t = MdTable::new(&[
            "dataset",
            "yago MUVF",
            "yago AVI",
            "dbpedia MUVF",
            "dbpedia AVI",
        ]);
        for (name, _) in [
            ("WikiTables", ()),
            ("WebTables", ()),
            ("RelationalTables", ()),
        ] {
            let y = self.cell(name, KbFlavor::YagoLike);
            let d = self.cell(name, KbFlavor::DbpediaLike);
            t.row(vec![
                name.to_string(),
                y.map(|c| c.muvf.to_string()).unwrap_or_default(),
                y.map(|c| c.avi.to_string()).unwrap_or_default(),
                d.map(|c| c.muvf.to_string()).unwrap_or_default(),
                d.map(|c| c.avi.to_string()).unwrap_or_default(),
            ]);
        }
        format!(
            "## Table 4 — #-variables to validate (MUVF vs AVI)\n\n{}\n\
             Paper shape: MUVF consistently validates fewer variables \
             than AVI on every dataset and KB.\n",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    #[test]
    fn muvf_validates_no_more_than_avi() {
        let corpus = Corpus::build(&CorpusConfig::small());
        let t4 = run(&corpus);
        assert!(!t4.cells.is_empty());
        for c in &t4.cells {
            assert!(
                c.muvf <= c.avi,
                "{}/{:?}: MUVF {} > AVI {}",
                c.dataset,
                c.flavor,
                c.muvf,
                c.avi
            );
        }
        // At least one strict saving overall.
        assert!(
            t4.cells.iter().any(|c| c.muvf < c.avi),
            "scheduling should save at least one variable somewhere"
        );
        assert!(t4.render().contains("MUVF"));
    }
}
