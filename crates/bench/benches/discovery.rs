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

/// Worker-pool scaling of candidate discovery. Besides the Criterion
/// timings this emits `BENCH_discovery.json` at the workspace root
/// (threads x wall-time x speedup; quick mode via `KATARA_BENCH_QUICK=1`).
fn bench_thread_scaling(c: &mut Criterion) {
    use katara_bench::perf;
    use katara_core::Threads;

    let corpus = bench_corpus();
    let kb = corpus.kb(KbFlavor::YagoLike);
    let table = &corpus.web[0].table;
    let mut group = c.benchmark_group("discovery_thread_scaling");
    group.sample_size(10);
    let mut report = perf::Report::new("discovery", "web_table/yago-like");
    let mut base_ms = None;
    for threads in perf::thread_counts() {
        let config = CandidateConfig {
            threads: Threads::fixed(threads),
            ..CandidateConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| discover_candidates(black_box(table), &kb, &config))
        });
        let (iters, wall_ms) = perf::run_timed(perf::sweep_iters(), || {
            black_box(discover_candidates(table, &kb, &config));
        });
        let base = *base_ms.get_or_insert(wall_ms);
        report
            .samples
            .push(perf::scaling_sample(threads, iters, wall_ms, base));
    }
    group.finish();
    // One untimed instrumented run so the report records the workload's
    // logical size (KB probes), not just its wall time.
    let rec = std::sync::Arc::new(katara_obs::RunRecorder::new());
    let instrumented = CandidateConfig {
        threads: Threads::fixed(1),
        recorder: rec.clone(),
        ..CandidateConfig::default()
    };
    black_box(discover_candidates(table, &kb, &instrumented));
    let mut metrics = rec.snapshot();
    metrics.threads = 1;
    report.metrics = Some(metrics);
    let path = report.write().expect("write BENCH_discovery.json");
    eprintln!("thread-scaling report: {}", path.display());
}

criterion_group!(
    benches,
    bench_candidate_generation,
    bench_algorithms,
    bench_topk_sweep,
    bench_thread_scaling
);
criterion_main!(benches);
