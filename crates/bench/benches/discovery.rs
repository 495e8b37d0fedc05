//! Benches for **Table 2 / Table 3 / Figure 6**: candidate generation and
//! the four pattern-discovery algorithms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use katara_baselines::{maxlike_topk, pgm_topk, support_topk, PgmConfig};
use katara_bench::{bench_corpus, discovery_fixture};
use katara_core::candidates::{discover_candidates, CandidateConfig};
use katara_core::rank_join::{discover_topk, DiscoveryConfig};
use katara_datagen::KbFlavor;

/// Table 3's dominant cost: candidate generation (KB lookups, linear in
/// the scanned tuples).
fn bench_candidate_generation(c: &mut Criterion) {
    let corpus = bench_corpus();
    let mut group = c.benchmark_group("table3_candidate_generation");
    group.sample_size(10);
    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let kb = corpus.kb(flavor);
        group.bench_function(BenchmarkId::new("web_table", flavor.name()), |b| {
            b.iter(|| {
                discover_candidates(
                    black_box(&corpus.web[0].table),
                    &kb,
                    &CandidateConfig::default(),
                )
            })
        });
        group.bench_function(BenchmarkId::new("person", flavor.name()), |b| {
            b.iter(|| {
                discover_candidates(
                    black_box(&corpus.person.table),
                    &kb,
                    &CandidateConfig::default(),
                )
            })
        });
    }
    group.finish();
}

/// Table 2/3: the four ranking algorithms over identical candidates.
fn bench_algorithms(c: &mut Criterion) {
    let corpus = bench_corpus();
    let f = discovery_fixture(&corpus, KbFlavor::YagoLike);
    let mut group = c.benchmark_group("table2_discovery_algorithms");
    group.sample_size(10);
    group.bench_function("support", |b| {
        b.iter(|| support_topk(&f.table.table, &f.kb, black_box(&f.cands), 1))
    });
    group.bench_function("maxlike", |b| {
        b.iter(|| maxlike_topk(&f.table.table, &f.kb, black_box(&f.cands), 1))
    });
    group.bench_function("pgm", |b| {
        b.iter(|| {
            pgm_topk(
                &f.table.table,
                &f.kb,
                black_box(&f.cands),
                1,
                &PgmConfig::default(),
            )
        })
    });
    group.bench_function("rankjoin", |b| {
        b.iter(|| {
            discover_topk(
                &f.table.table,
                &f.kb,
                black_box(&f.cands),
                1,
                &DiscoveryConfig::default(),
            )
        })
    });
    group.finish();
}

/// Figure 6: top-k sweeps of the rank-join.
fn bench_topk_sweep(c: &mut Criterion) {
    let corpus = bench_corpus();
    let f = discovery_fixture(&corpus, KbFlavor::YagoLike);
    let mut group = c.benchmark_group("fig6_topk_sweep");
    group.sample_size(10);
    for k in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                discover_topk(
                    &f.table.table,
                    &f.kb,
                    black_box(&f.cands),
                    k,
                    &DiscoveryConfig::default(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_candidate_generation,
    bench_algorithms,
    bench_topk_sweep
);
criterion_main!(benches);
