//! `batch-cold`: in-process `Katara::clean` of the full table, one caller,
//! enrichment off, a fresh `TableResolution` per clean, the expert crowd.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use katara_core::{Katara, TableResolution};
use katara_eval::metrics::{pattern_precision_recall, repair_precision_recall};
use katara_kb::{ntriples, Kb};
use katara_obs::{NoopRecorder, RunRecorder};
use katara_table::Table;

use crate::fixture::Inputs;
use crate::pipeline::{assembled_clean, batch_config};
use crate::stats::Outcome;
use crate::trace::Tracer;
use crate::{mem, Args, RunOutput, Window};

/// Run the workload.
pub fn run(args: &Args, tracer: &Tracer) -> RunOutput {
    let mut inputs = Inputs::generate(args.seed, true);
    let table = katara_table::csv::parse("Person", &inputs.csv).expect("generated CSV parses");

    let setup = Instant::now();
    let rss_before = mem::rss_mb();
    let mut kb = {
        let _s = tracer.enter("kb.load", 0, None);
        ntriples::parse("yago", &std::mem::take(&mut inputs.nt)).expect("generated KB parses")
    };
    let load_rss = mem::rss_mb() - rss_before;
    let setup_s = setup.elapsed().as_secs_f64();

    let mut out = RunOutput::new(crate::triples(&kb), &inputs, std::slice::from_ref(&table));
    out.values.set("setup_s", setup_s);
    out.values.set("kb.load_rss_mb", load_rss);
    if tracer.enabled() {
        traced(&inputs, &table, &mut kb, tracer, &mut out);
    } else {
        timed(args, &inputs, &table, &mut kb, &mut out);
    }
    out
}

/// Closed-loop cleans; every report must equal the first and leave the
/// KB version alone.
fn timed(args: &Args, inputs: &Inputs, table: &Table, kb: &mut Kb, out: &mut RunOutput) {
    let katara = Katara::new(batch_config(Arc::new(NoopRecorder)));
    let version = kb.version();
    let peak_reset = mem::reset_peak();
    let window = Window::new(args.seconds);
    let start = Instant::now();
    let mut first: Option<String> = None;
    let mut latencies = Vec::new();
    let mut last = Duration::ZERO;
    while window.admit(latencies.len(), last) {
        let mut crowd = inputs.expert_crowd();
        let t = Instant::now();
        let result = katara.clean(table, kb, &mut crowd);
        last = t.elapsed();
        latencies.push(last.as_secs_f64() * 1e3);
        let outcome = match result {
            Err(e) => {
                eprintln!("clean failed: {e}");
                Outcome::Error
            }
            Ok(report) => {
                let bytes = format!("{report:?}");
                if first.is_none() {
                    quality(inputs, kb, &report, out);
                    first = Some(bytes.clone());
                }
                if first.as_deref() == Some(bytes.as_str()) && kb.version() == version {
                    Outcome::Ok
                } else {
                    Outcome::CheckFailed
                }
            }
        };
        out.tally.record(outcome);
    }
    out.finish_timed(&latencies, start.elapsed(), mem::peak_mb(), peak_reset);
}

/// The user-facing quality of a clean, against the generator's truth.
fn quality(inputs: &Inputs, kb: &Kb, report: &katara_core::CleaningReport, out: &mut RunOutput) {
    let (gt_types, gt_rels) = inputs.truth_names(kb);
    let pattern = pattern_precision_recall(kb, &report.pattern, &gt_types, &gt_rels);
    let repair = repair_precision_recall(&inputs.log, &report.repairs);
    out.values.set("pattern_f", pattern.f_measure());
    out.values.set("repair_precision", repair.p);
    out.values.set("repair_recall", repair.r);
    out.values
        .set("crowd_questions", report.degradation.questions_asked as f64);
}

/// One untraced `Katara::clean` as the reference, one clean assembled
/// from the same phase calls under spans (must produce the same report),
/// then a decomposition pass over the snapshot's distinct values.
fn traced(inputs: &Inputs, table: &Table, kb: &mut Kb, tracer: &Tracer, out: &mut RunOutput) {
    let mut crowd = inputs.expert_crowd();
    let t = Instant::now();
    let reference = Katara::new(batch_config(Arc::new(NoopRecorder))).clean(table, kb, &mut crowd);
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;

    let rec = Arc::new(RunRecorder::new());
    let config = batch_config(rec.clone());
    let mut crowd = inputs.expert_crowd();
    let t = Instant::now();
    let assembled = assembled_clean(&config, table, kb, &mut crowd, None, tracer, 1, None);
    let traced_ms = t.elapsed().as_secs_f64() * 1e3;

    match (&reference, &assembled) {
        (Ok(r), Ok((a, _))) => {
            out.tally.record(Outcome::Ok);
            let same = format!("{r:?}") == format!("{a:?}");
            out.tally.record(if same {
                Outcome::Ok
            } else {
                Outcome::CheckFailed
            });
            out.check("assembled_clean_equals_katara_clean", same);
            quality(inputs, kb, r, out);
        }
        _ => {
            out.tally.record(Outcome::Error);
            out.tally.record(Outcome::Error);
        }
    }
    let metrics = rec.snapshot();
    let v = &mut out.values;
    v.set(
        "trace.overhead_pct",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
    );
    for name in [
        "discovery.type_probes",
        "discovery.rel_probes",
        "kb.plan_type_first",
        "kb.plan_rel_first",
        "repair.graphs_built",
        "repair.tuples_repaired",
        "annotation.enriched_facts",
        "resolve.candidates_fallback",
    ] {
        v.set(name, metrics.counter(name) as f64);
    }
    v.set(
        "resolve.distinct_values",
        metrics.gauge("resolve.distinct_values").unwrap_or(0) as f64,
    );
    v.set(
        "resolve.candidates_hit_ratio",
        metrics.counter("resolve.candidates_hit") as f64
            / metrics.counter("resolve.candidates_lookups").max(1) as f64,
    );

    if let Ok((_, Some(resolution))) = &assembled {
        decompose(kb, table, resolution, tracer, &mut out.values);
    }
    let spans = tracer.spans();
    let selfs = crate::trace::self_times(&spans);
    out.layer_times(&spans, &selfs);
    let build = out.values.get("resolve.build_ms").unwrap_or(0.0);
    let clean_ms: f64 = spans
        .iter()
        .filter(|s| s.name == "clean")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    out.values
        .set("resolve.share_pct", 100.0 * build / clean_ms);
    let parts: f64 = [
        "resolve.labels_ms",
        "resolve.types_ms",
        "resolve.pair_memo_ms",
    ]
    .iter()
    .filter_map(|n| out.values.get(n))
    .sum();
    out.values.set(
        "resolve.decomposition_gap_pct",
        100.0 * (parts - build) / build,
    );
}

/// Re-run the snapshot build's KB calls one distinct value (and one
/// column pair) at a time under spans: label search, `Q_types`, and the
/// pair memo.
fn decompose(
    kb: &Kb,
    table: &Table,
    res: &TableResolution,
    tracer: &Tracer,
    values: &mut crate::report::Values,
) {
    const OP: u64 = 1;
    let root = tracer.enter("resolve.decomposition", OP, None);
    let at = root.id();
    let n = res.num_values();
    let mut candidates = Vec::with_capacity(n);
    let (mut fuzzy, mut fuzzy_hits, mut fuzzy_time) = (0usize, 0usize, Duration::ZERO);
    for id in 0..n as u32 {
        let norm = res.norm_of(id);
        let is_fuzzy = kb.resources_by_label(norm).is_empty();
        let span = tracer.enter("resolve.labels", OP, at);
        let cands = kb.candidate_resources_normalized(norm);
        let took = span.finish();
        if is_fuzzy {
            fuzzy += 1;
            fuzzy_time += took;
            fuzzy_hits += usize::from(!cands.is_empty());
        }
        let _types = {
            let _s = tracer.enter("resolve.types", OP, at);
            kb.types_for_candidates(&cands)
        };
        candidates.push(cands);
    }
    let mut memo: HashSet<(u32, u32)> = HashSet::new();
    let cols = table.num_columns();
    for i in 0..cols {
        for j in (0..cols).filter(|&j| j != i) {
            let _s = tracer.enter("resolve.pair_memo", OP, at);
            for row in 0..res.pair_rows() {
                let (Some(a), Some(b)) = (res.value_id(i, row), res.value_id(j, row)) else {
                    continue;
                };
                if memo.insert((a, b)) {
                    let (ca, cb) = (&candidates[a as usize], &candidates[b as usize]);
                    let _rels = kb.relations_for_candidates_planned(ca, cb);
                    let _lits = kb.literal_relations_for_candidates(ca, res.norm_of(b));
                }
            }
        }
    }
    drop(root);
    values.set("resolve.fuzzy_values", fuzzy as f64);
    values.set(
        "resolve.fuzzy_lookup_ms",
        fuzzy_time.as_secs_f64() * 1e3 / fuzzy.max(1) as f64,
    );
    values.set(
        "resolve.fuzzy_hit_ratio",
        fuzzy_hits as f64 / fuzzy.max(1) as f64,
    );
    values.set("resolve.pair_memo_entries", memo.len() as f64);
}
