//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! 1. rank-join early termination vs exhaustive enumeration;
//! 2. inverted-list repair candidates vs the naive all-graphs scan;
//! 3. precomputed coherence table vs on-the-fly PMI recomputation;
//! 4. KB enrichment on vs off (crowd cost on redundant data).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use katara_bench::{bench_corpus, discovery_fixture};
use katara_core::annotation::{annotate, AnnotationConfig};
use katara_core::candidates::{discover_candidates, CandidateConfig};
use katara_core::rank_join::{discover_exhaustive, discover_topk, DiscoveryConfig};
use katara_core::repair::{topk_repairs, topk_repairs_naive, RepairConfig, RepairIndex};
use katara_crowd::{Crowd, CrowdConfig};
use katara_datagen::{KbFlavor, TableOracle};

/// Ablation 1: Algorithm 1's early termination vs scoring the whole
/// Cartesian product.
fn bench_rankjoin_vs_exhaustive(c: &mut Criterion) {
    let corpus = bench_corpus();
    let f = discovery_fixture(&corpus, KbFlavor::YagoLike);
    let cfg = DiscoveryConfig::default();
    let mut group = c.benchmark_group("ablation_rankjoin");
    group.bench_function("rank_join_top3", |b| {
        b.iter(|| discover_topk(&f.table.table, &f.kb, black_box(&f.cands), 3, &cfg))
    });
    group.bench_function("exhaustive_top3", |b| {
        b.iter(|| discover_exhaustive(&f.table.table, &f.kb, black_box(&f.cands), 3, &cfg))
    });
    group.finish();
}

/// Ablation 2: Algorithm 4's inverted lists vs the naive scan the paper
/// rejects as "too slow in practice".
fn bench_inverted_lists(c: &mut Criterion) {
    let corpus = bench_corpus();
    let kb = corpus.kb(KbFlavor::DbpediaLike);
    let g = &corpus.person;
    let cands = discover_candidates(&g.table, &kb, &CandidateConfig::default());
    let pattern = discover_topk(&g.table, &kb, &cands, 1, &DiscoveryConfig::default())
        .into_iter()
        .next()
        .expect("person pattern");
    let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
    let rows: Vec<_> = (0..g.table.num_rows().min(25))
        .map(|r| g.table.row(r).to_vec())
        .collect();
    let mut group = c.benchmark_group("ablation_inverted_lists");
    group.sample_size(10);
    group.bench_function("indexed", |b| {
        b.iter(|| {
            for row in &rows {
                black_box(topk_repairs(
                    &index,
                    &kb,
                    &pattern,
                    row,
                    3,
                    &RepairConfig::default(),
                ));
            }
        })
    });
    group.bench_function("naive_scan", |b| {
        b.iter(|| {
            for row in &rows {
                black_box(topk_repairs_naive(
                    &index,
                    &kb,
                    &pattern,
                    row,
                    3,
                    &RepairConfig::default(),
                ));
            }
        })
    });
    group.finish();
}

/// Ablation 3: the offline coherence table vs recomputing PMI from the
/// raw ENT/subENT sets on every probe.
fn bench_coherence_cache(c: &mut Criterion) {
    let corpus = bench_corpus();
    let kb = corpus.kb(KbFlavor::YagoLike);
    let classes: Vec<_> = kb.class_ids().take(40).collect();
    let props: Vec<_> = kb.property_ids().collect();
    let mut group = c.benchmark_group("ablation_coherence_cache");
    group.bench_function("cached_lookup", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &t in &classes {
                for &p in &props {
                    acc += kb.sub_coherence(t, p);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("recompute_pmi", |b| {
        b.iter(|| {
            let n = kb.num_entities() as f64;
            let mut acc = 0.0;
            for &t in &classes {
                for &p in &props {
                    // The set intersection the cache avoids.
                    let ent: std::collections::HashSet<_> =
                        kb.entities_of_class(t).iter().copied().collect();
                    let inter = kb
                        .subjects_of_property(p)
                        .iter()
                        .filter(|r| ent.contains(r))
                        .count();
                    if inter == 0 {
                        continue;
                    }
                    let pr_t = ent.len() as f64 / n;
                    let pr_p = kb.subjects_of_property(p).len() as f64 / n;
                    let pr_j = inter as f64 / n;
                    let pmi = (pr_j / (pr_p * pr_t)).ln();
                    let npmi = (pmi / -pr_j.ln()).clamp(-1.0, 1.0);
                    acc += (npmi + 1.0) / 2.0;
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Ablation 4: enrichment converts crowd work into KB hits on redundant
/// data — compare annotation with enrichment on vs off.
fn bench_enrichment(c: &mut Criterion) {
    let corpus = bench_corpus();
    let flavor = KbFlavor::YagoLike;
    let g = &corpus.university;
    let kb0 = corpus.kb(flavor);
    let cands = discover_candidates(&g.table, &kb0, &CandidateConfig::default());
    let pattern = discover_topk(&g.table, &kb0, &cands, 1, &DiscoveryConfig::default())
        .into_iter()
        .next()
        .expect("university pattern");
    let mut group = c.benchmark_group("ablation_enrichment");
    group.sample_size(10);
    for (name, enrich) in [("enrichment_on", true), ("enrichment_off", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut kb = corpus.kb(flavor);
                let oracle = TableOracle::new(corpus.facts.clone(), g.ground_truth.clone(), flavor);
                let mut crowd = Crowd::new(
                    CrowdConfig {
                        worker_accuracy: 1.0,
                        ..CrowdConfig::default()
                    },
                    oracle,
                )
                .expect("bench crowd config is valid");
                annotate(
                    black_box(&g.table),
                    &pattern,
                    &mut kb,
                    &mut crowd,
                    &AnnotationConfig { enrich_kb: enrich },
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rankjoin_vs_exhaustive,
    bench_inverted_lists,
    bench_coherence_cache,
    bench_enrichment
);
criterion_main!(benches);
