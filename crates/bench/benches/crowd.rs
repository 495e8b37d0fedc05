//! Bench for **crowd aggregation quality** (DESIGN.md §5k): plurality
//! voting vs Dawid–Skene EM on the seeded fault-plan grid of the
//! `crowd-quality` eval sweep, at equal worker-answer budget. Emits
//! `BENCH_crowd.json` at the workspace root with one sample per
//! (fault plan, aggregation mode): questions answered, worker answers
//! spent, accuracy, disagreement escalations, and replica slots saved
//! by adaptive replication, plus the run metrics of one instrumented
//! Dawid–Skene pipeline clean (quick mode via `KATARA_BENCH_QUICK=1`
//! trims the grid to the two CI sentinel plans).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use katara_bench::perf::{self, Field};
use katara_core::{Katara, KataraConfig};
use katara_crowd::{AggregationMode, Crowd, CrowdConfig, FaultPlan};
use katara_datagen::{KbFlavor, TableOracle};
use katara_eval::corpus::{Corpus, CorpusConfig};
use katara_eval::experiments::crowd_quality::{plans, run_mode, Plan, ANSWER_BUDGET, QUESTIONS};
use katara_obs::RunRecorder;

/// The plan grid to record: the two CI sentinel plans in quick mode,
/// the full spammer-fraction × accuracy grid otherwise.
fn grid() -> Vec<Plan> {
    let all = plans();
    if perf::quick_mode() {
        all.into_iter()
            .filter(|p| p.name == "honest/0.95" || p.name == "spam40/0.75")
            .collect()
    } else {
        all
    }
}

/// One untimed, fully instrumented Dawid–Skene pipeline clean on a
/// corpus wiki table — embedded as the report's `"metrics"` object so
/// the artifact records the EM iteration, confidence, and escalation
/// counters alongside the sweep numbers.
fn instrumented_metrics() -> katara_obs::RunMetrics {
    let corpus = Corpus::build(&CorpusConfig::small());
    let g = &corpus.wiki[0];
    let flavor = KbFlavor::YagoLike;
    let mut kb = corpus.kb(flavor);
    let oracle = TableOracle::new(corpus.facts.clone(), g.ground_truth.clone(), flavor);
    let mut crowd = Crowd::new(
        CrowdConfig {
            worker_accuracy: 0.85,
            aggregation: AggregationMode::DawidSkene,
            faults: FaultPlan {
                spammer_fraction: 0.25,
                ..FaultPlan::default()
            },
            ..CrowdConfig::default()
        },
        oracle,
    )
    .expect("crowd config is valid");
    let rec = Arc::new(RunRecorder::new());
    let config = KataraConfig {
        recorder: rec.clone(),
        ..KataraConfig::default()
    };
    Katara::new(config)
        .clean(&g.table, &mut kb, &mut crowd)
        .expect("wiki table yields a pattern");
    rec.snapshot()
}

fn bench_crowd(c: &mut Criterion) {
    let grid = grid();

    let mut group = c.benchmark_group("crowd");
    group.sample_size(10);
    let timing_plan = grid[0].clone();
    group.bench_function("dawid_skene_sweep", |b| {
        b.iter(|| black_box(run_mode(&timing_plan, AggregationMode::DawidSkene)))
    });
    group.bench_function("plurality_sweep", |b| {
        b.iter(|| black_box(run_mode(&timing_plan, AggregationMode::Plurality)))
    });
    group.finish();

    let mut report = perf::Report::new(
        "crowd",
        &format!("{QUESTIONS} questions, {ANSWER_BUDGET} worker-answer budget"),
    );
    for plan in &grid {
        for (mode, agg) in [
            (AggregationMode::Plurality, "plurality"),
            (AggregationMode::DawidSkene, "dawid-skene"),
        ] {
            let t = Instant::now();
            let stats = run_mode(plan, mode);
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            report.samples.push(vec![
                ("plan", Field::str(plan.name)),
                ("agg", Field::str(agg)),
                ("questions", Field::Int(stats.questions)),
                ("answers", Field::Int(stats.answers)),
                ("accuracy", Field::F4(stats.accuracy)),
                ("escalations", Field::Int(stats.escalations)),
                ("questions_saved", Field::Int(stats.questions_saved)),
                ("wall_ms", Field::F3(wall_ms)),
            ]);
        }
    }
    report.metrics = Some(instrumented_metrics());
    let path = report.write().expect("write BENCH_crowd.json");
    eprintln!("crowd report: {}", path.display());
}

criterion_group!(benches, bench_crowd);
criterion_main!(benches);
