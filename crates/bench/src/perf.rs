//! Machine-readable bench reports.
//!
//! Besides the usual Criterion output, the `resolve`, `serve`,
//! `incremental` and `crowd` bench targets each drop a
//! `BENCH_<name>.json` at the workspace root. Every file shares one
//! envelope, written by [`Report`]:
//!
//! ```json
//! {
//!   "bench": "resolve",
//!   "fixture": "person/yago-like",
//!   "mode": "full",
//!   "parallelism": 8,
//!   "distinct_ratio": 0.2740,
//!   "triples": 1181822,
//!   "metrics": { "schema": "katara-run-metrics/v1", ... },
//!   "samples": [
//!     { "config": "cold", "iters": 10, "wall_ms": 1417.250, "speedup": 1.000 },
//!     { "config": "snapshot", "iters": 12, "wall_ms": 467.500, "speedup": 3.032 }
//!   ]
//! }
//! ```
//!
//! `parallelism` records the machine's available parallelism, so a flat
//! curve on a one-core box reads as a hardware limit, not a regression.
//! Fixture-level fields (the resolve bench's `distinct_ratio` and
//! `triples`) follow it as the report's `header`. Each sample is the
//! ordered list of fields its bench measured, so the four files differ
//! only in their sample keys; `scripts/check_bench_schema.sh` states
//! and checks each file's keys.
//!
//! A `speedup` is relative to the sweep's baseline, which every sweep
//! measures first: `"cold"`, or `"full"` at each edit rate
//! ([`speedup`]). Set `KATARA_BENCH_QUICK=1` for a cut-down sweep
//! (fewer iterations) suitable for CI smoke jobs.
//!
//! Timed configs use *min-total-time* control ([`run_timed`]):
//! iterations repeat until at least [`min_sample_ms`] of wall time has
//! accumulated (and at least the requested minimum iteration count has
//! run), so a fast config is not judged from two noisy microsecond runs.
//!
//! Each report also embeds a `"metrics"` object — the
//! [`katara_obs::RunMetrics`] of one *untimed* instrumented run of the
//! benched workload — so a `BENCH_*.json` records not just how fast the
//! fixture ran but how much logical work it did (KB probes, heap pops,
//! repairs generated). The instrumented run happens after all timing;
//! the timed iterations keep the no-op recorder.

use std::path::PathBuf;
use std::time::Instant;

use katara_obs::RunMetrics;

/// Environment variable selecting the cut-down CI sweep.
pub const QUICK_ENV: &str = "KATARA_BENCH_QUICK";

/// True when [`QUICK_ENV`] is set (to anything non-empty).
pub fn quick_mode() -> bool {
    std::env::var(QUICK_ENV).is_ok_and(|v| !v.is_empty())
}

/// Timed iterations per measured config: trimmed in quick mode. This is a
/// *minimum* — sampling continues until [`min_sample_ms`] has elapsed.
pub fn sweep_iters() -> usize {
    if quick_mode() {
        3
    } else {
        10
    }
}

/// Minimum accumulated wall time per measured config, in milliseconds:
/// 100 ms in full mode (so per-config means are statistically
/// meaningful), 5 ms in quick mode (CI smoke only checks the plumbing).
pub fn min_sample_ms() -> f64 {
    if quick_mode() {
        5.0
    } else {
        100.0
    }
}

/// Run `f` repeatedly until both `min_iters` iterations and
/// [`min_sample_ms`] of wall time have accumulated; returns the
/// iteration count and the mean wall time per iteration in milliseconds.
pub fn run_timed<F: FnMut()>(min_iters: usize, mut f: F) -> (usize, f64) {
    let min_total = std::time::Duration::from_secs_f64(min_sample_ms() / 1e3);
    let start = Instant::now();
    let mut iters = 0usize;
    loop {
        f();
        iters += 1;
        if iters >= min_iters.max(1) && start.elapsed() >= min_total {
            break;
        }
    }
    (iters, start.elapsed().as_secs_f64() * 1e3 / iters as f64)
}

/// Wall-time ratio of a sample against its baseline (1.0 when the sample
/// took no measurable time).
pub fn speedup(base_ms: f64, wall_ms: f64) -> f64 {
    if wall_ms > 0.0 {
        base_ms / wall_ms
    } else {
        1.0
    }
}

/// Throughput and latency of one batch of requests: completed requests
/// per second over `total_wall_ms`, and the nearest-rank p50 and p99 of
/// `latencies_ms` over a total-order float sort (NaN-safe by
/// construction). An empty batch reads all zeros.
pub fn batch_rates(latencies_ms: &[f64], total_wall_ms: f64) -> (f64, f64, f64) {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    let req_per_s = if total_wall_ms > 0.0 {
        latencies_ms.len() as f64 * 1e3 / total_wall_ms
    } else {
        0.0
    };
    (req_per_s, pct(0.50), pct(0.99))
}

/// Sum of every `discovery.*` and `repair.*` counter in a metrics
/// snapshot — the logical-work figure the incremental report records per
/// sample (resolution and crowd spend are tracked by their own counters;
/// discovery + repair is what a delta re-clean is supposed to avoid).
pub fn work_counters(metrics: &RunMetrics) -> u64 {
    metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("discovery.") || name.starts_with("repair."))
        .map(|&(_, v)| v)
        .sum()
}

/// One field value, rendered at the precision the schema expects.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// A JSON string (escaped).
    Str(String),
    /// An integer.
    Int(usize),
    /// A float at 3 decimals: wall times, rates, speedups.
    F3(f64),
    /// A float at 4 decimals: ratios (`edit_rate`, `accuracy`,
    /// `distinct_ratio`).
    F4(f64),
}

impl Field {
    /// A string field.
    pub fn str(s: &str) -> Field {
        Field::Str(s.to_string())
    }

    fn render(&self) -> String {
        match self {
            Field::Str(s) => format!("\"{}\"", escape(s)),
            Field::Int(n) => n.to_string(),
            Field::F3(x) => format!("{x:.3}"),
            Field::F4(x) => format!("{x:.4}"),
        }
    }
}

/// One measured point: its fields in the order they are written.
pub type Sample = Vec<(&'static str, Field)>;

/// A bench report: the shared envelope plus the bench's samples.
#[derive(Debug, Clone)]
pub struct Report {
    /// Bench name — becomes the `BENCH_<bench>.json` file name.
    pub bench: String,
    /// Human-readable fixture description.
    pub fixture: String,
    /// Fixture-level fields, written after `parallelism`.
    pub header: Vec<(&'static str, Field)>,
    /// Measured points, in measurement order.
    pub samples: Vec<Sample>,
    /// Run metrics from one untimed instrumented run of the workload,
    /// embedded under the `"metrics"` key when present.
    pub metrics: Option<RunMetrics>,
}

impl Report {
    /// Start an empty report.
    pub fn new(bench: &str, fixture: &str) -> Self {
        Report {
            bench: bench.to_string(),
            fixture: fixture.to_string(),
            header: Vec::new(),
            samples: Vec::new(),
            metrics: None,
        }
    }

    /// Render the JSON document.
    pub fn to_json(&self) -> String {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mode = if quick_mode() { "quick" } else { "full" };
        self.render(mode, parallelism)
    }

    fn render(&self, mode: &str, parallelism: usize) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.bench)));
        out.push_str(&format!("  \"fixture\": \"{}\",\n", escape(&self.fixture)));
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str(&format!("  \"parallelism\": {parallelism},\n"));
        for (key, value) in &self.header {
            out.push_str(&format!("  \"{key}\": {},\n", value.render()));
        }
        if let Some(m) = &self.metrics {
            out.push_str("  \"metrics\": ");
            out.push_str(&m.to_json_object(2));
            out.push_str(",\n");
        }
        out.push_str("  \"samples\": [\n");
        for (i, sample) in self.samples.iter().enumerate() {
            let fields: Vec<String> = sample
                .iter()
                .map(|(key, value)| format!("\"{key}\": {}", value.render()))
                .collect();
            let comma = if i + 1 < self.samples.len() { "," } else { "" };
            out.push_str(&format!("    {{ {} }}{comma}\n", fields.join(", ")));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_<bench>.json` at the workspace root; returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        let path = root.join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Minimal JSON string escaping — fixture names are plain ASCII, but a
/// stray quote must not corrupt the document.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use katara_obs::SpanSnapshot;

    /// A fixed metrics snapshot, so the golden documents are exact.
    fn metrics() -> RunMetrics {
        RunMetrics {
            counters: vec![("discovery.heap_pops", 1), ("repair.graphs_built", 42)],
            gauges: vec![("table.rows", 3)],
            histograms: vec![],
            spans: vec![SpanSnapshot {
                name: "clean",
                depth: 0,
                wall_ns: 1_234_567,
            }],
            threads: 1,
        }
    }

    const METRICS_JSON: &str = r#"  "metrics": {
    "schema": "katara-run-metrics/v1",
    "deterministic": {
      "counters": {
        "discovery.heap_pops": 1,
        "repair.graphs_built": 42
      },
      "gauges": {
        "table.rows": 3
      },
      "histograms": {
      }
    },
    "nondeterministic": {
      "threads": 1,
      "spans": [
        { "name": "clean", "depth": 0, "wall_ms": 1.235 }
      ]
    }
  },
"#;

    /// The envelope's first lines, as every report writes them in full
    /// mode on a two-way machine.
    fn head(bench: &str, fixture: &str) -> String {
        format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"fixture\": \"{fixture}\",\n  \
             \"mode\": \"full\",\n  \"parallelism\": 2,\n"
        )
    }

    #[test]
    fn resolve_report_is_byte_identical_to_the_golden_document() {
        let mut r = Report::new("resolve", "person/yago-like");
        r.header = vec![
            ("distinct_ratio", Field::F4(0.123456)),
            ("triples", Field::Int(1_181_822)),
        ];
        let base = 1417.25;
        for (config, iters, wall) in [("cold", 10, base), ("snapshot", 12, 467.5)] {
            r.samples.push(vec![
                ("config", Field::str(config)),
                ("iters", Field::Int(iters)),
                ("wall_ms", Field::F3(wall)),
                ("speedup", Field::F3(speedup(base, wall))),
            ]);
        }
        r.metrics = Some(metrics());
        let expected = head("resolve", "person/yago-like")
            + "  \"distinct_ratio\": 0.1235,\n  \"triples\": 1181822,\n"
            + METRICS_JSON
            + r#"  "samples": [
    { "config": "cold", "iters": 10, "wall_ms": 1417.250, "speedup": 1.000 },
    { "config": "snapshot", "iters": 12, "wall_ms": 467.500, "speedup": 3.032 }
  ]
}
"#;
        assert_eq!(r.render("full", 2), expected);
    }

    #[test]
    fn serve_report_is_byte_identical_to_the_golden_document() {
        let mut r = Report::new("serve", "person/yago-like");
        let lat: Vec<f64> = (1..=100).map(|i| i as f64 * 1.5).collect();
        let batches: [(&str, usize, &[f64], f64); 3] = [
            ("cold", 1, &[3.0, f64::NAN, 1.0, 2.0], 10.0),
            ("warm", 2, &[], 0.0), // an empty batch stays finite
            ("warm", 4, &lat, 1_000.0),
        ];
        for (config, concurrency, latencies, wall) in batches {
            let (req_per_s, p50, p99) = batch_rates(latencies, wall);
            r.samples.push(vec![
                ("config", Field::str(config)),
                ("concurrency", Field::Int(concurrency)),
                ("requests", Field::Int(latencies.len())),
                ("req_per_s", Field::F3(req_per_s)),
                ("p50_ms", Field::F3(p50)),
                ("p99_ms", Field::F3(p99)),
            ]);
        }
        let expected = head("serve", "person/yago-like")
            + r#"  "samples": [
    { "config": "cold", "concurrency": 1, "requests": 4, "req_per_s": 400.000, "p50_ms": 3.000, "p99_ms": NaN },
    { "config": "warm", "concurrency": 2, "requests": 0, "req_per_s": 0.000, "p50_ms": 0.000, "p99_ms": 0.000 },
    { "config": "warm", "concurrency": 4, "requests": 100, "req_per_s": 100.000, "p50_ms": 76.500, "p99_ms": 148.500 }
  ]
}
"#;
        assert_eq!(r.render("full", 2), expected);
    }

    #[test]
    fn incremental_report_is_byte_identical_to_the_golden_document() {
        let mut r = Report::new("incremental", "person/yago-like");
        let runs = [
            (0.001, (3, 1500.0, 100_000), (200, 2.25, 12)),
            (0.01, (3, 1600.0, 100_010), (30, 20.0, 120)),
        ];
        for (rate, full, delta) in runs {
            for (config, (iters, wall, work)) in [("full", full), ("delta", delta)] {
                r.samples.push(vec![
                    ("config", Field::str(config)),
                    ("edit_rate", Field::F4(rate)),
                    ("iters", Field::Int(iters)),
                    ("wall_ms", Field::F3(wall)),
                    ("speedup", Field::F3(speedup(full.1, wall))),
                    ("work_counters", Field::Int(work)),
                ]);
            }
        }
        r.metrics = Some(metrics());
        let expected = head("incremental", "person/yago-like")
            + METRICS_JSON
            + r#"  "samples": [
    { "config": "full", "edit_rate": 0.0010, "iters": 3, "wall_ms": 1500.000, "speedup": 1.000, "work_counters": 100000 },
    { "config": "delta", "edit_rate": 0.0010, "iters": 200, "wall_ms": 2.250, "speedup": 666.667, "work_counters": 12 },
    { "config": "full", "edit_rate": 0.0100, "iters": 3, "wall_ms": 1600.000, "speedup": 1.000, "work_counters": 100010 },
    { "config": "delta", "edit_rate": 0.0100, "iters": 30, "wall_ms": 20.000, "speedup": 80.000, "work_counters": 120 }
  ]
}
"#;
        assert_eq!(r.render("full", 2), expected);
    }

    #[test]
    fn crowd_report_is_byte_identical_to_the_golden_document() {
        let mut r = Report::new("crowd", "120 questions, 360 worker-answer budget");
        let rows = [
            ("honest/0.95", "plurality", 120, 360, 0.983333, 0, 0, 4.2),
            ("honest/0.95", "dawid-skene", 120, 253, 1.0, 0, 111, 3.1),
            ("spam40/0.75", "dawid-skene", 97, 360, 0.75258, 14, 2, 5.04),
        ];
        for (plan, agg, questions, answers, accuracy, escalations, saved, wall) in rows {
            r.samples.push(vec![
                ("plan", Field::str(plan)),
                ("agg", Field::str(agg)),
                ("questions", Field::Int(questions)),
                ("answers", Field::Int(answers)),
                ("accuracy", Field::F4(accuracy)),
                ("escalations", Field::Int(escalations)),
                ("questions_saved", Field::Int(saved)),
                ("wall_ms", Field::F3(wall)),
            ]);
        }
        r.metrics = Some(metrics());
        let expected = head("crowd", "120 questions, 360 worker-answer budget")
            + METRICS_JSON
            + r#"  "samples": [
    { "plan": "honest/0.95", "agg": "plurality", "questions": 120, "answers": 360, "accuracy": 0.9833, "escalations": 0, "questions_saved": 0, "wall_ms": 4.200 },
    { "plan": "honest/0.95", "agg": "dawid-skene", "questions": 120, "answers": 253, "accuracy": 1.0000, "escalations": 0, "questions_saved": 111, "wall_ms": 3.100 },
    { "plan": "spam40/0.75", "agg": "dawid-skene", "questions": 97, "answers": 360, "accuracy": 0.7526, "escalations": 14, "questions_saved": 2, "wall_ms": 5.040 }
  ]
}
"#;
        assert_eq!(r.render("full", 2), expected);
    }

    #[test]
    fn min_total_time_tops_up_iterations() {
        // A microsecond-scale body must be iterated far beyond the
        // 2-iteration floor to accumulate min_sample_ms of wall time.
        let mut count = 0usize;
        let (iters, wall_ms) = run_timed(2, || count += 1);
        assert_eq!(iters, count);
        assert!(count > 2, "min-total-time should demand more than {count}");
        assert!(iters as f64 * wall_ms >= min_sample_ms() * 0.9);
    }

    #[test]
    fn work_counters_sums_discovery_and_repair_only() {
        use katara_obs::{Counter, Recorder, RunRecorder};
        let rec = RunRecorder::new();
        rec.incr(Counter::DiscoveryHeapPops);
        rec.incr_by(Counter::DiscoveryTypeProbes, 4);
        rec.incr_by(Counter::RepairTuplesRepaired, 2);
        rec.incr_by(Counter::CrowdQuestionsAsked, 99);
        assert_eq!(work_counters(&rec.snapshot()), 7);
    }

    #[test]
    fn escape_keeps_json_valid() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn embedded_metrics_render_inside_the_envelope() {
        use katara_obs::{Counter, Recorder, RunRecorder};
        let rec = RunRecorder::new();
        rec.incr(Counter::DiscoveryHeapPops);
        let mut r = Report::new("unit", "toy");
        let (iters, wall_ms) = run_timed(1, || {});
        r.samples.push(vec![
            ("threads", Field::Int(1)),
            ("iters", Field::Int(iters)),
            ("wall_ms", Field::F3(wall_ms)),
        ]);
        r.metrics = Some(rec.snapshot());
        let json = r.to_json();
        assert!(json.contains("\"metrics\": {"), "{json}");
        assert!(json.contains("\"schema\": \"katara-run-metrics/v1\""));
        assert!(json.contains("\"discovery.heap_pops\": 1"));
        // The embedded object closes at its own indent and the envelope
        // still closes cleanly after it.
        assert!(json.contains("  },\n  \"samples\": ["), "{json}");
        assert!(json.ends_with("  ]\n}\n"), "{json}");
    }
}
