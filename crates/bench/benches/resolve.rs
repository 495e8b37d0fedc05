//! Bench for the **shared KB query snapshot** (DESIGN.md §5e) over the
//! **columnar triple store** (DESIGN.md §5i): a full end-to-end cleaning
//! run with the [`TableResolution`] built inside the run ("cold") and the
//! run with the resolution injected pre-built ("snapshot"). Emits
//! `BENCH_resolve.json` at the workspace root with the wall times, the
//! speedup, the fixture's distinct-value ratio, the KB triple count, and
//! the embedded metrics of one instrumented run (quick mode via
//! `KATARA_BENCH_QUICK=1`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use katara_bench::perf::{self, Field};
use katara_bench::{resolve_crowd, resolve_fixture, ResolveFixture};
use katara_core::annotation::AnnotationConfig;
use katara_core::resolve::TableResolution;
use katara_core::validation::ValidationConfig;
use katara_core::{Katara, KataraConfig};

/// The bench pipeline config: enrichment off so the KB is immutable
/// across iterations (the pre-built snapshot stays current), one
/// question per variable so crowd chatter stays small relative to
/// resolution work.
fn bench_config() -> KataraConfig {
    KataraConfig {
        annotation: AnnotationConfig { enrich_kb: false },
        validation: ValidationConfig {
            questions_per_variable: 1,
            ..ValidationConfig::default()
        },
        ..KataraConfig::default()
    }
}

fn clean_cold(f: &ResolveFixture) {
    let katara = Katara::new(bench_config());
    let mut kb = f.kb.clone();
    let mut crowd = resolve_crowd(f);
    black_box(
        katara
            .clean(&f.table.table, &mut kb, &mut crowd)
            .expect("cold clean"),
    );
}

fn clean_snapshot(f: &ResolveFixture, res: &TableResolution) {
    let katara = Katara::new(bench_config());
    let mut kb = f.kb.clone();
    let mut crowd = resolve_crowd(f);
    black_box(
        katara
            .clean_with_resolution(&f.table.table, &mut kb, &mut crowd, Some(res))
            .expect("snapshot clean"),
    );
}

/// Cold vs snapshot-cached end-to-end clean. The Criterion group gives
/// the interactive view; the [`perf::Report`] gives the machine-readable
/// artifact.
fn bench_resolve(c: &mut Criterion) {
    let fixture = resolve_fixture();
    let config = bench_config();
    let res = TableResolution::build(
        &fixture.table.table,
        &fixture.kb,
        config.candidates.max_rows,
    );
    let triples =
        fixture.kb.num_facts() + fixture.kb.num_type_assertions() + fixture.kb.num_entities();
    eprintln!(
        "resolve fixture: {} ({} injected errors, distinct ratio {:.4}, {triples} triples)",
        fixture.name,
        fixture.errors,
        res.distinct_ratio()
    );
    let mut group = c.benchmark_group("resolve_snapshot");
    group.sample_size(10);
    group.bench_function("cold", |b| b.iter(|| clean_cold(&fixture)));
    group.bench_function("snapshot", |b| b.iter(|| clean_snapshot(&fixture, &res)));
    group.finish();

    let mut report = perf::Report::new("resolve", &fixture.name);
    report.header = vec![
        ("distinct_ratio", Field::F4(res.distinct_ratio())),
        ("triples", Field::Int(triples)),
    ];
    let (cold_iters, cold_ms) = perf::run_timed(perf::sweep_iters(), || clean_cold(&fixture));
    let (snap_iters, snap_ms) =
        perf::run_timed(perf::sweep_iters(), || clean_snapshot(&fixture, &res));
    for (config, iters, wall_ms) in [
        ("cold", cold_iters, cold_ms),
        ("snapshot", snap_iters, snap_ms),
    ] {
        report.samples.push(vec![
            ("config", Field::str(config)),
            ("iters", Field::Int(iters)),
            ("wall_ms", Field::F3(wall_ms)),
            ("speedup", Field::F3(perf::speedup(cold_ms, wall_ms))),
        ]);
    }
    // One untimed instrumented end-to-end run (cold, so the pipeline
    // builds — and instruments — its own snapshot) for the report's
    // logical-work metrics.
    let rec = std::sync::Arc::new(katara_obs::RunRecorder::new());
    let mut obs_config = bench_config();
    obs_config.recorder = rec.clone();
    obs_config.threads = katara_core::Threads::fixed(1);
    obs_config.candidates.threads = katara_core::Threads::fixed(1);
    let katara = Katara::new(obs_config);
    let mut kb = fixture.kb.clone();
    let mut crowd = resolve_crowd(&fixture);
    black_box(
        katara
            .clean(&fixture.table.table, &mut kb, &mut crowd)
            .expect("instrumented clean"),
    );
    let mut metrics = rec.snapshot();
    metrics.threads = 1;
    report.metrics = Some(metrics);
    let path = report.write().expect("write BENCH_resolve.json");
    eprintln!("resolve report: {}", path.display());
}

criterion_group!(benches, bench_resolve);
criterion_main!(benches);
