//! Benches for **Figure 8 / Table 6 / Table 7**: instance-graph index
//! construction, top-k repair generation, and the EQ/SCARE comparators.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use katara_baselines::{eq_repair, scare_repair, ScareConfig};
use katara_bench::bench_corpus;
use katara_core::candidates::{discover_candidates, CandidateConfig};
use katara_core::rank_join::{discover_topk, DiscoveryConfig};
use katara_core::repair::{topk_repairs, RepairConfig, RepairIndex};
use katara_datagen::KbFlavor;
use katara_table::corrupt::{corrupt_table, CorruptionConfig};
use katara_table::Fd;

fn person_fixture() -> (
    katara_kb::Kb,
    katara_core::pattern::TablePattern,
    katara_table::Table,
) {
    let corpus = bench_corpus();
    let kb = corpus.kb(KbFlavor::DbpediaLike);
    let g = &corpus.person;
    let cands = discover_candidates(&g.table, &kb, &CandidateConfig::default());
    let pattern = discover_topk(&g.table, &kb, &cands, 1, &DiscoveryConfig::default())
        .into_iter()
        .next()
        .expect("person pattern");
    let mut dirty = g.table.clone();
    corrupt_table(
        &mut dirty,
        &CorruptionConfig::paper_default(vec![1, 2, 3]),
        7,
    );
    (kb, pattern, dirty)
}

/// Index build (offline, per pattern — the paper precomputes it too).
fn bench_index_build(c: &mut Criterion) {
    let (kb, pattern, _) = person_fixture();
    let mut group = c.benchmark_group("fig8_repair_index_build");
    group.sample_size(10);
    group.bench_function("person_pattern", |b| {
        b.iter(|| RepairIndex::build(black_box(&kb), &pattern, &RepairConfig::default()))
    });
    group.finish();
}

/// Figure 8: per-tuple top-k repair generation, sweeping k.
fn bench_topk_repairs(c: &mut Criterion) {
    let (kb, pattern, dirty) = person_fixture();
    let index = RepairIndex::build(&kb, &pattern, &RepairConfig::default());
    let mut group = c.benchmark_group("fig8_topk_repairs");
    for k in [1usize, 3, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                for r in 0..dirty.num_rows().min(50) {
                    black_box(topk_repairs(
                        &index,
                        &kb,
                        &pattern,
                        dirty.row(r),
                        k,
                        &RepairConfig::default(),
                    ));
                }
            })
        });
    }
    group.finish();
}

/// Table 6: the automatic comparators on the dirty Person table.
fn bench_comparators(c: &mut Criterion) {
    let (_, _, dirty) = person_fixture();
    let fds = Fd::expand(&[0], &[1, 2, 3]);
    let mut group = c.benchmark_group("table6_comparators");
    group.bench_function("eq", |b| b.iter(|| eq_repair(black_box(&dirty), &fds)));
    group.bench_function("scare", |b| {
        b.iter(|| scare_repair(black_box(&dirty), &fds, &ScareConfig::default()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_index_build,
    bench_topk_repairs,
    bench_comparators
);
criterion_main!(benches);
