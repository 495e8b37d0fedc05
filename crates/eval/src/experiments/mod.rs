//! Experiment runners — one module per table/figure of the paper.

pub mod ablation_coherence;
pub mod crowd_quality;
pub mod fig11;
pub mod fig12;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod robustness;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

use katara_baselines::{maxlike_topk, pgm_topk, support_topk, PgmConfig};
use katara_core::candidates::{discover_candidates, CandidateConfig, CandidateSet};
use katara_core::pattern::TablePattern;
use katara_core::rank_join::{discover_topk, DiscoveryConfig};
use katara_crowd::{Crowd, CrowdConfig};
use katara_datagen::{GeneratedTable, KbFlavor, KbGenConfig, TableOracle};
use katara_kb::Kb;
use katara_table::Table;

use crate::corpus::Corpus;

/// The four pattern-discovery algorithms of §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Support baseline.
    Support,
    /// Maximum-likelihood baseline.
    MaxLike,
    /// Probabilistic-graphical-model baseline.
    Pgm,
    /// KATARA's rank-join.
    RankJoin,
}

impl Algo {
    /// All four, in the paper's column order.
    pub fn all() -> [Algo; 4] {
        [Algo::Support, Algo::MaxLike, Algo::Pgm, Algo::RankJoin]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Support => "Support",
            Algo::MaxLike => "MaxLike",
            Algo::Pgm => "PGM",
            Algo::RankJoin => "RankJoin",
        }
    }

    /// Run the algorithm for the top-k patterns over precomputed
    /// candidates.
    pub fn topk(self, table: &Table, kb: &Kb, cands: &CandidateSet, k: usize) -> Vec<TablePattern> {
        match self {
            Algo::Support => support_topk(table, kb, cands, k),
            Algo::MaxLike => maxlike_topk(table, kb, cands, k),
            Algo::Pgm => pgm_topk(table, kb, cands, k, &PgmConfig::default()),
            Algo::RankJoin => discover_topk(table, kb, cands, k, &DiscoveryConfig::default()),
        }
    }
}

/// Both KB flavors, in the paper's order (Yago first).
pub fn flavors() -> [KbFlavor; 2] {
    [KbFlavor::YagoLike, KbFlavor::DbpediaLike]
}

/// Per-column ground-truth type names.
pub type GtTypes = Vec<Option<&'static str>>;
/// Ground-truth relationship triples `(subject col, object col, name)`.
pub type GtRels = Vec<(usize, usize, &'static str)>;

/// Ground truth of `g` rendered for `flavor`:
/// (per-column type names, relationship triples).
pub fn ground_truth_for(g: &GeneratedTable, flavor: KbFlavor) -> (GtTypes, GtRels) {
    let cfg = KbGenConfig::for_flavor(flavor);
    (
        g.ground_truth.types_for(flavor),
        g.ground_truth.rels_for(&cfg),
    )
}

/// Candidate discovery with the default experiment configuration.
pub fn candidates_for(table: &Table, kb: &Kb) -> CandidateSet {
    discover_candidates(table, kb, &CandidateConfig::default())
}

/// Candidate discovery pinned to one worker — used inside table-level
/// `par_map` sweeps so the corpus fans out across tables without nesting
/// a second pool per table.
fn candidates_for_seq(table: &Table, kb: &Kb) -> CandidateSet {
    discover_candidates(
        table,
        kb,
        &CandidateConfig {
            threads: katara_exec::Threads::single(),
            ..CandidateConfig::default()
        },
    )
}

/// An expert crowd for one (table, flavor) pair.
pub fn crowd_for(
    corpus: &Corpus,
    g: &GeneratedTable,
    flavor: KbFlavor,
    accuracy: f64,
    seed: u64,
) -> Crowd<TableOracle> {
    let oracle = TableOracle::new(corpus.facts.clone(), g.ground_truth.clone(), flavor);
    Crowd::new(
        CrowdConfig {
            worker_accuracy: accuracy,
            seed,
            ..CrowdConfig::default()
        },
        oracle,
    )
    .expect("experiment crowd config is valid")
}

/// Mean best-F of the top-k patterns over a set of tables, per algorithm
/// (shared by Figures 6 and 11).
pub fn topk_f_series(
    corpus: &Corpus,
    tables: &[&GeneratedTable],
    flavor: KbFlavor,
    ks: &[usize],
) -> Vec<[f64; 4]> {
    let kb = corpus.kb(flavor);
    let max_k = ks.iter().copied().max().unwrap_or(1);
    // Collect top-max_k once per table and algorithm; slice per k. Tables
    // are independent, so fan out across them (one worker pool level:
    // per-table discovery runs sequentially) and fold the per-table
    // results back in table order so the float sums are unchanged.
    let per_table: Vec<([Vec<TablePattern>; 4], GtTypes, GtRels)> =
        katara_exec::par_map(katara_exec::Threads::auto(), tables, |g| {
            let cands = candidates_for_seq(&g.table, &kb);
            let (gt_types, gt_rels) = ground_truth_for(g, flavor);
            let tops = [
                Algo::Support.topk(&g.table, &kb, &cands, max_k),
                Algo::MaxLike.topk(&g.table, &kb, &cands, max_k),
                Algo::Pgm.topk(&g.table, &kb, &cands, max_k),
                Algo::RankJoin.topk(&g.table, &kb, &cands, max_k),
            ];
            (tops, gt_types, gt_rels)
        });
    ks.iter()
        .map(|&k| {
            let mut means = [0.0f64; 4];
            for (tops, gt_types, gt_rels) in &per_table {
                for (ai, top) in tops.iter().enumerate() {
                    means[ai] += crate::metrics::best_f_of_topk(&kb, top, k, gt_types, gt_rels);
                }
            }
            if !per_table.is_empty() {
                for m in &mut means {
                    *m /= per_table.len() as f64;
                }
            }
            means
        })
        .collect()
}

/// Mean P/R of the crowd-validated pattern over a set of tables, for each
/// questions-per-variable value `q` (shared by Figures 7 and 12).
pub fn validation_series(
    corpus: &Corpus,
    tables: &[&GeneratedTable],
    flavor: KbFlavor,
    qs: &[usize],
    worker_accuracy: f64,
) -> Vec<crate::metrics::PatternScore> {
    use katara_core::validation::{validate_patterns, SchedulingStrategy, ValidationConfig};
    let kb = corpus.kb(flavor);
    qs.iter()
        .map(|&q| {
            let mut sum = crate::metrics::PatternScore::default();
            let mut n = 0usize;
            for (ti, g) in tables.iter().enumerate() {
                let cands = candidates_for(&g.table, &kb);
                let patterns = Algo::RankJoin.topk(&g.table, &kb, &cands, 5);
                if patterns.is_empty() {
                    continue;
                }
                let mut crowd =
                    crowd_for(corpus, g, flavor, worker_accuracy, (q * 1000 + ti) as u64);
                let outcome = validate_patterns(
                    &g.table,
                    &kb,
                    patterns,
                    &mut crowd,
                    &ValidationConfig {
                        questions_per_variable: q,
                        tuples_per_question: 5,
                        seed: ti as u64,
                    },
                    SchedulingStrategy::Muvf,
                );
                let (gt_types, gt_rels) = ground_truth_for(g, flavor);
                let s = crate::metrics::pattern_precision_recall(
                    &kb,
                    &outcome.pattern,
                    &gt_types,
                    &gt_rels,
                );
                sum.p += s.p;
                sum.r += s.r;
                n += 1;
            }
            if n > 0 {
                sum.p /= n as f64;
                sum.r /= n as f64;
            }
            sum
        })
        .collect()
}

/// The outcome of one end-to-end KATARA repair run on a corrupted table.
#[derive(Debug)]
pub struct RepairRun {
    /// The injected errors (ground truth).
    pub log: katara_table::CorruptionLog,
    /// Top-k possible repairs per erroneous row.
    pub proposals: Vec<(usize, Vec<katara_core::repair::Repair>)>,
    /// False when the validated pattern had no relationships — the
    /// paper's Soccer-with-Yago `N.A.` case.
    pub applicable: bool,
}

/// Corrupt a copy of `g` on `corrupt_cols`, run the full KATARA pipeline
/// (discovery → validation → annotation → top-k repairs) and return the
/// scored artifacts. `None` when no pattern is discovered at all.
pub fn katara_repair_run(
    corpus: &Corpus,
    g: &GeneratedTable,
    flavor: KbFlavor,
    corrupt_cols: &[usize],
    k: usize,
    seed: u64,
) -> Option<RepairRun> {
    use katara_core::annotation::{annotate, AnnotationConfig};
    use katara_core::repair::{topk_repairs, RepairConfig, RepairIndex};
    use katara_core::validation::{validate_patterns, SchedulingStrategy, ValidationConfig};
    use katara_table::corrupt::{corrupt_table, CorruptionConfig};

    let mut dirty = g.table.clone();
    let mut log = corrupt_table(
        &mut dirty,
        &CorruptionConfig::paper_default(corrupt_cols.to_vec()),
        seed,
    );
    // Natural blanks are errors too (the paper: "most of remaining errors
    // in these tables are null values") — score against them as well.
    log.changes.extend(g.blanks.changes.iter().cloned());

    let mut kb = corpus.kb(flavor);
    let cands = candidates_for(&dirty, &kb);
    let patterns = Algo::RankJoin.topk(&dirty, &kb, &cands, 5);
    if patterns.is_empty() {
        return None;
    }
    let mut crowd = crowd_for(corpus, g, flavor, 0.97, seed);
    let outcome = validate_patterns(
        &dirty,
        &kb,
        patterns,
        &mut crowd,
        &ValidationConfig::default(),
        SchedulingStrategy::Muvf,
    );
    let pattern = outcome.pattern;
    if pattern.edges().is_empty() {
        // Without relationships KATARA cannot compute possible repairs
        // (§7.4: "Yago cannot be used to repair Soccer").
        return Some(RepairRun {
            log,
            proposals: Vec::new(),
            applicable: false,
        });
    }

    let annotation = annotate(
        &dirty,
        &pattern,
        &mut kb,
        &mut crowd,
        &AnnotationConfig::default(),
    );
    // Use the effective pattern (annotation-time feedback may have
    // stripped spurious elements).
    let pattern = annotation.pattern.clone();
    if pattern.edges().is_empty() {
        return Some(RepairRun {
            log,
            proposals: Vec::new(),
            applicable: false,
        });
    }
    let repair_cfg = RepairConfig::default();
    let index = RepairIndex::build(&kb, &pattern, &repair_cfg);
    let proposals = annotation
        .erroneous_rows()
        .into_iter()
        .map(|row| {
            let r = topk_repairs(&index, &kb, &pattern, dirty.row(row), k, &repair_cfg);
            (row, r)
        })
        .collect();
    Some(RepairRun {
        log,
        proposals,
        applicable: true,
    })
}

/// The Appendix D FDs for a RelationalTables member, plus the RHS columns
/// the paper injects errors into for the Table 6 comparison.
pub fn appendix_d_fds(table_name: &str) -> (Vec<katara_table::Fd>, Vec<usize>) {
    use katara_table::Fd;
    match table_name {
        // Person: A → B, C, D.
        "Person" => (Fd::expand(&[0], &[1, 2, 3]), vec![1, 2, 3]),
        // Soccer: C → A, B; A → E; D → A.
        "Soccer" => {
            let mut fds = Fd::expand(&[2], &[0, 1]);
            fds.push(Fd::new(vec![0], 4));
            fds.push(Fd::new(vec![3], 0));
            (fds, vec![0, 1, 4])
        }
        // University: A → B, C; C → B.
        "University" => {
            let mut fds = Fd::expand(&[0], &[1, 2]);
            fds.push(Fd::new(vec![2], 1));
            (fds, vec![1, 2])
        }
        other => panic!("no Appendix D FDs for table {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_roster_matches_paper() {
        let names: Vec<&str> = Algo::all().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["Support", "MaxLike", "PGM", "RankJoin"]);
    }

    #[test]
    fn flavor_order_is_yago_first() {
        assert_eq!(flavors()[0], KbFlavor::YagoLike);
    }
}
