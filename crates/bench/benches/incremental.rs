//! Bench for the **incremental cleaning engine** (DESIGN.md §5j): a
//! full re-clean of the edited table vs a `DeltaSession::clean_delta`
//! replay of the same edits, on the Yago-scale resolve fixture at
//! 0.1% / 1% / 10% edit rates. Emits `BENCH_incremental.json` at the
//! workspace root; each sample carries the sum of the `discovery.*` and
//! `repair.*` logical-work counters one instrumented application
//! incremented, so "fraction of full work" is checkable from the
//! artifact alone (quick mode via `KATARA_BENCH_QUICK=1`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use katara_bench::perf::{self, Field};
use katara_bench::{resolve_crowd, resolve_fixture, ResolveFixture};
use katara_core::annotation::AnnotationConfig;
use katara_core::validation::ValidationConfig;
use katara_core::{CandidateConfig, Katara, KataraConfig, Threads};
use katara_datagen::{edit_stream, EditStreamConfig};
use katara_kb::Kb;
use katara_obs::RunRecorder;

/// Stream seeds rotate from here so repeated iterations apply fresh,
/// deterministic edit batches instead of re-applying one delta.
const STREAM_SEED: u64 = 0xD17A;

/// Fractions of the table edited per applied delta.
fn edit_rates() -> [f64; 3] {
    [0.001, 0.01, 0.1]
}

/// Minimum timed iterations per config (min-total-time still applies).
fn min_iters() -> usize {
    if perf::quick_mode() {
        2
    } else {
        3
    }
}

/// The pipeline config both paths run: single worker pool, one question
/// per variable, enrichment off (the KB must stay fixed so repeated
/// iterations see the same store).
fn pipeline_config(recorder: Option<Arc<RunRecorder>>) -> KataraConfig {
    let mut config = KataraConfig {
        annotation: AnnotationConfig { enrich_kb: false },
        validation: ValidationConfig {
            questions_per_variable: 1,
            ..ValidationConfig::default()
        },
        threads: Threads::fixed(1),
        candidates: CandidateConfig {
            threads: Threads::fixed(1),
            ..CandidateConfig::default()
        },
        ..KataraConfig::default()
    };
    if let Some(rec) = recorder {
        config.recorder = rec;
    }
    config
}

fn stream_config(edit_rate: f64) -> EditStreamConfig {
    EditStreamConfig {
        edit_rate,
        ..EditStreamConfig::default()
    }
}

/// Logical work (`discovery.* + repair.*`) of one full re-clean of the
/// table after one delta at `rate`.
fn full_work(fixture: &ResolveFixture, kb: &mut Kb, rate: f64) -> u64 {
    let rec = Arc::new(RunRecorder::new());
    let katara = Katara::new(pipeline_config(Some(rec.clone())));
    let mut table = fixture.table.table.clone();
    let delta = edit_stream(
        &table,
        &fixture.table.table,
        &stream_config(rate),
        STREAM_SEED,
    );
    delta.apply(&mut table).expect("generated edits apply");
    let mut crowd = resolve_crowd(fixture);
    black_box(
        katara
            .clean(&table, kb, &mut crowd)
            .expect("instrumented full clean"),
    );
    perf::work_counters(&rec.snapshot())
}

/// Logical work of one incremental application of the same delta, plus
/// the run's full metrics snapshot (bootstrap included) for the report.
fn delta_work(fixture: &ResolveFixture, kb: &mut Kb, rate: f64) -> (u64, katara_obs::RunMetrics) {
    let rec = Arc::new(RunRecorder::new());
    let katara = Katara::new(pipeline_config(Some(rec.clone())));
    let mut crowd = resolve_crowd(fixture);
    let (mut session, _boot) = katara
        .delta_session(&fixture.table.table, kb, &mut crowd)
        .expect("bootstrap clean");
    let before = perf::work_counters(&rec.snapshot());
    let delta = edit_stream(
        session.table(),
        &fixture.table.table,
        &stream_config(rate),
        STREAM_SEED,
    );
    let mut crowd = resolve_crowd(fixture);
    black_box(
        session
            .clean_delta(kb, &mut crowd, &delta)
            .expect("instrumented delta clean"),
    );
    let metrics = rec.snapshot();
    (perf::work_counters(&metrics) - before, metrics)
}

fn bench_incremental(c: &mut Criterion) {
    let fixture = resolve_fixture();
    eprintln!(
        "incremental fixture: {} ({} injected errors)",
        fixture.name, fixture.errors
    );
    let mut kb = fixture.kb.clone();
    let mut report = perf::Report::new("incremental", &fixture.name);

    for rate in edit_rates() {
        // Untimed instrumented applications give each sample its
        // logical-work figure.
        let wf = full_work(&fixture, &mut kb, rate);
        let (wd, metrics) = delta_work(&fixture, &mut kb, rate);
        eprintln!(
            "edit_rate {rate}: full work {wf}, delta work {wd} ({:.1}x less)",
            wf as f64 / wd.max(1) as f64
        );
        if (rate - 0.01).abs() < 1e-12 {
            report.metrics = Some(metrics);
            assert!(
                wf >= 10 * wd.max(1),
                "1%-edit delta re-clean must do >=10x less discovery+repair \
                 work than full (full {wf}, delta {wd})"
            );
        }

        // Timed full path: apply a fresh delta to the shadow table, then
        // re-clean it from scratch.
        let katara = Katara::new(pipeline_config(None));
        let mut shadow = fixture.table.table.clone();
        let mut k = 0u64;
        let (full_iters, full_ms) = perf::run_timed(min_iters(), || {
            let delta = edit_stream(
                &shadow,
                &fixture.table.table,
                &stream_config(rate),
                STREAM_SEED + k,
            );
            delta.apply(&mut shadow).expect("generated edits apply");
            let mut crowd = resolve_crowd(&fixture);
            black_box(
                katara
                    .clean(&shadow, &mut kb, &mut crowd)
                    .expect("full clean"),
            );
            k += 1;
        });

        // Timed delta path: same workload through one warm session.
        let mut crowd = resolve_crowd(&fixture);
        let (mut session, _boot) = katara
            .delta_session(&fixture.table.table, &mut kb, &mut crowd)
            .expect("bootstrap clean");
        let mut k = 0u64;
        let (delta_iters, delta_ms) = perf::run_timed(min_iters(), || {
            let delta = edit_stream(
                session.table(),
                &fixture.table.table,
                &stream_config(rate),
                STREAM_SEED + k,
            );
            let mut crowd = resolve_crowd(&fixture);
            black_box(
                session
                    .clean_delta(&mut kb, &mut crowd, &delta)
                    .expect("delta clean"),
            );
            k += 1;
        });
        for (config, iters, wall_ms, work) in [
            ("full", full_iters, full_ms, wf),
            ("delta", delta_iters, delta_ms, wd),
        ] {
            report.samples.push(vec![
                ("config", Field::str(config)),
                ("edit_rate", Field::F4(rate)),
                ("iters", Field::Int(iters)),
                ("wall_ms", Field::F3(wall_ms)),
                ("speedup", Field::F3(perf::speedup(full_ms, wall_ms))),
                ("work_counters", Field::Int(work as usize)),
            ]);
        }
    }

    let path = report.write().expect("write BENCH_incremental.json");
    eprintln!("incremental report: {}", path.display());

    // The interactive Criterion view times the (ms-scale) delta path.
    let katara = Katara::new(pipeline_config(None));
    let mut crowd = resolve_crowd(&fixture);
    let (mut session, _boot) = katara
        .delta_session(&fixture.table.table, &mut kb, &mut crowd)
        .expect("bootstrap clean");
    let mut k = 1_000u64;
    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.bench_function("delta_1pct", |b| {
        b.iter(|| {
            let delta = edit_stream(
                session.table(),
                &fixture.table.table,
                &stream_config(0.01),
                STREAM_SEED + k,
            );
            let mut crowd = resolve_crowd(&fixture);
            k += 1;
            black_box(
                session
                    .clean_delta(&mut kb, &mut crowd, &delta)
                    .expect("delta clean"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
