//! Machine-readable thread-scaling reports.
//!
//! The `discovery` and `repair` bench targets sweep the worker-pool size
//! and, besides the usual Criterion output, drop a `BENCH_<name>.json`
//! at the workspace root:
//!
//! ```json
//! {
//!   "bench": "discovery",
//!   "fixture": "web_table/yago-like",
//!   "mode": "full",
//!   "parallelism": 8,
//!   "samples": [
//!     { "threads": 1, "iters": 10, "wall_ms": 12.3, "speedup": 1.0 },
//!     { "threads": 2, "iters": 18, "wall_ms": 6.5, "speedup": 1.89 }
//!   ]
//! }
//! ```
//!
//! `speedup` is relative to the `threads: 1` sample. `parallelism`
//! records the machine's available parallelism so a flat curve on a
//! one-core box reads as a hardware limit, not a regression. Set
//! `KATARA_BENCH_QUICK=1` for a cut-down sweep (threads 1–2, fewer
//! iterations) suitable for CI smoke jobs.
//!
//! Every config is sampled with *min-total-time* control: iterations
//! repeat until at least [`min_sample_ms`] of wall time has accumulated
//! (and at least the requested minimum iteration count has run), so a
//! fast config is not judged from two noisy microsecond runs. The actual
//! iteration count lands in the sample's `iters` field.
//!
//! The `resolve` bench target emits the same envelope via
//! [`ResolveReport`], with per-sample `config` labels (`"cold"` builds
//! the KB query snapshot inside every cleaning run, `"snapshot"` reuses
//! a pre-built one) plus the fixture's distinct-value ratio — the
//! fraction of non-null cells that are distinct after normalization,
//! which bounds how much work snapshot reuse can save.
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

/// The worker-pool sizes to sweep: `[1, 2]` in quick mode, `[1, 2, 4, 8]`
/// otherwise.
pub fn thread_counts() -> Vec<usize> {
    if quick_mode() {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// Timed iterations per thread count: trimmed in quick mode. This is a
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
fn run_timed<F: FnMut()>(min_iters: usize, mut f: F) -> (usize, f64) {
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

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ThreadSample {
    /// Worker-pool size.
    pub threads: usize,
    /// Iterations actually timed (min-total-time control).
    pub iters: usize,
    /// Mean wall time per iteration, in milliseconds.
    pub wall_ms: f64,
    /// Wall-time ratio vs the 1-thread sample (1.0 for the baseline).
    pub speedup: f64,
}

/// A thread-scaling report for one bench target.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Bench name — becomes the `BENCH_<bench>.json` file name.
    pub bench: String,
    /// Human-readable fixture description.
    pub fixture: String,
    /// Measured points, in sweep order.
    pub samples: Vec<ThreadSample>,
    /// Run metrics from one untimed instrumented run of the workload,
    /// embedded under the `"metrics"` key when present.
    pub metrics: Option<RunMetrics>,
}

impl ScalingReport {
    /// Start an empty report.
    pub fn new(bench: &str, fixture: &str) -> Self {
        ScalingReport {
            bench: bench.to_string(),
            fixture: fixture.to_string(),
            samples: Vec::new(),
            metrics: None,
        }
    }

    /// Time at least `min_iters` runs of `f` (and at least
    /// [`min_sample_ms`] of wall time) and record the mean as the sample
    /// for `threads`. Speedups are (re)derived from the 1-thread sample.
    pub fn measure<F: FnMut()>(&mut self, threads: usize, min_iters: usize, f: F) {
        let (iters, wall_ms) = run_timed(min_iters, f);
        self.samples.push(ThreadSample {
            threads,
            iters,
            wall_ms,
            speedup: 1.0,
        });
        let base = self
            .samples
            .iter()
            .find(|s| s.threads == 1)
            .map(|s| s.wall_ms)
            .unwrap_or(wall_ms);
        for s in &mut self.samples {
            s.speedup = if s.wall_ms > 0.0 {
                base / s.wall_ms
            } else {
                1.0
            };
        }
    }

    /// Render the JSON document.
    pub fn to_json(&self) -> String {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mode = if quick_mode() { "quick" } else { "full" };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.bench)));
        out.push_str(&format!("  \"fixture\": \"{}\",\n", escape(&self.fixture)));
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str(&format!("  \"parallelism\": {parallelism},\n"));
        if let Some(m) = &self.metrics {
            out.push_str("  \"metrics\": ");
            out.push_str(&m.to_json_object(2));
            out.push_str(",\n");
        }
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let comma = if i + 1 < self.samples.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"threads\": {}, \"iters\": {}, \"wall_ms\": {:.3}, \
                 \"speedup\": {:.3} }}{comma}\n",
                s.threads, s.iters, s.wall_ms, s.speedup
            ));
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

/// One measured configuration of the resolve bench.
#[derive(Debug, Clone)]
pub struct ResolveSample {
    /// Configuration label: `"cold"` or `"snapshot"`.
    pub config: String,
    /// Iterations actually timed (min-total-time control).
    pub iters: usize,
    /// Mean wall time per iteration, in milliseconds.
    pub wall_ms: f64,
    /// Wall-time ratio vs the `"cold"` sample (1.0 for the baseline).
    pub speedup: f64,
}

/// The cold-vs-snapshot report for the `resolve` bench target — same
/// envelope as [`ScalingReport`] but keyed by configuration label
/// instead of thread count, plus the fixture's distinct-value ratio.
#[derive(Debug, Clone)]
pub struct ResolveReport {
    /// Bench name — becomes the `BENCH_<bench>.json` file name.
    pub bench: String,
    /// Human-readable fixture description.
    pub fixture: String,
    /// Distinct normalized values / non-null cells of the fixture table
    /// (1.0 for an empty table). The lower it is, the more the columnar
    /// snapshot saves.
    pub distinct_ratio: f64,
    /// Total triples in the fixture KB (type assertions + resource facts
    /// + literal facts) — records the scale the probe timings ran at.
    pub triples: u64,
    /// Measured configurations, in measurement order.
    pub samples: Vec<ResolveSample>,
    /// Run metrics from one untimed instrumented run of the workload,
    /// embedded under the `"metrics"` key when present.
    pub metrics: Option<RunMetrics>,
}

impl ResolveReport {
    /// Start an empty report.
    pub fn new(bench: &str, fixture: &str, distinct_ratio: f64) -> Self {
        ResolveReport {
            bench: bench.to_string(),
            fixture: fixture.to_string(),
            distinct_ratio,
            triples: 0,
            samples: Vec::new(),
            metrics: None,
        }
    }

    /// Time at least `min_iters` runs of `f` (and at least
    /// [`min_sample_ms`] of wall time) and record the mean as the sample
    /// for `config`. Speedups are (re)derived from the `"cold"` sample.
    pub fn measure<F: FnMut()>(&mut self, config: &str, min_iters: usize, f: F) {
        let (iters, wall_ms) = run_timed(min_iters, f);
        self.samples.push(ResolveSample {
            config: config.to_string(),
            iters,
            wall_ms,
            speedup: 1.0,
        });
        let base = self
            .samples
            .iter()
            .find(|s| s.config == "cold")
            .map(|s| s.wall_ms)
            .unwrap_or(wall_ms);
        for s in &mut self.samples {
            s.speedup = if s.wall_ms > 0.0 {
                base / s.wall_ms
            } else {
                1.0
            };
        }
    }

    /// Render the JSON document.
    pub fn to_json(&self) -> String {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mode = if quick_mode() { "quick" } else { "full" };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.bench)));
        out.push_str(&format!("  \"fixture\": \"{}\",\n", escape(&self.fixture)));
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str(&format!("  \"parallelism\": {parallelism},\n"));
        out.push_str(&format!(
            "  \"distinct_ratio\": {:.4},\n",
            self.distinct_ratio
        ));
        out.push_str(&format!("  \"triples\": {},\n", self.triples));
        if let Some(m) = &self.metrics {
            out.push_str("  \"metrics\": ");
            out.push_str(&m.to_json_object(2));
            out.push_str(",\n");
        }
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let comma = if i + 1 < self.samples.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"config\": \"{}\", \"iters\": {}, \"wall_ms\": {:.3}, \
                 \"speedup\": {:.3} }}{comma}\n",
                escape(&s.config),
                s.iters,
                s.wall_ms,
                s.speedup
            ));
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

/// One measured configuration of the serve bench: a batch of HTTP
/// `/clean` requests at one concurrency level, against either a cold or
/// a warm snapshot cache.
#[derive(Debug, Clone)]
pub struct ServeSample {
    /// Configuration label: `"cold"` (every request rebuilds the
    /// `TableResolution`) or `"warm"` (the daemon's snapshot cache hits).
    pub config: String,
    /// Concurrent client threads issuing requests.
    pub concurrency: usize,
    /// Total requests measured in this batch.
    pub requests: usize,
    /// Completed requests per second over the batch wall time.
    pub req_per_s: f64,
    /// Median request latency, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, in milliseconds.
    pub p99_ms: f64,
}

/// The throughput/latency report for the `serve` bench target — the
/// same envelope as [`ScalingReport`] but with per-batch request rates
/// and latency percentiles instead of per-iteration wall times.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Bench name — becomes the `BENCH_<bench>.json` file name.
    pub bench: String,
    /// Human-readable fixture description.
    pub fixture: String,
    /// Measured batches, in measurement order.
    pub samples: Vec<ServeSample>,
    /// Run metrics from one untimed instrumented run of the benched
    /// workload, embedded under the `"metrics"` key when present.
    pub metrics: Option<RunMetrics>,
}

impl ServeReport {
    /// Start an empty report.
    pub fn new(bench: &str, fixture: &str) -> Self {
        ServeReport {
            bench: bench.to_string(),
            fixture: fixture.to_string(),
            samples: Vec::new(),
            metrics: None,
        }
    }

    /// Record one batch from its per-request latencies and total wall
    /// time. Percentiles use the nearest-rank method over a total-order
    /// float sort (NaN-safe by construction).
    pub fn record(
        &mut self,
        config: &str,
        concurrency: usize,
        latencies_ms: &[f64],
        total_wall_ms: f64,
    ) {
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
        self.samples.push(ServeSample {
            config: config.to_string(),
            concurrency,
            requests: latencies_ms.len(),
            req_per_s,
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
        });
    }

    /// Render the JSON document.
    pub fn to_json(&self) -> String {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mode = if quick_mode() { "quick" } else { "full" };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.bench)));
        out.push_str(&format!("  \"fixture\": \"{}\",\n", escape(&self.fixture)));
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str(&format!("  \"parallelism\": {parallelism},\n"));
        if let Some(m) = &self.metrics {
            out.push_str("  \"metrics\": ");
            out.push_str(&m.to_json_object(2));
            out.push_str(",\n");
        }
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let comma = if i + 1 < self.samples.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"config\": \"{}\", \"concurrency\": {}, \"requests\": {}, \
                 \"req_per_s\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3} }}{comma}\n",
                escape(&s.config),
                s.concurrency,
                s.requests,
                s.req_per_s,
                s.p50_ms,
                s.p99_ms
            ));
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

/// One measured configuration of the incremental bench: a full re-clean
/// or a delta re-clean at one edit rate.
#[derive(Debug, Clone)]
pub struct IncrementalSample {
    /// Configuration label: `"full"` (re-clean the edited table from
    /// scratch) or `"delta"` (replay the edits through a warm
    /// `DeltaSession`).
    pub config: String,
    /// Fraction of rows edited per applied delta.
    pub edit_rate: f64,
    /// Iterations actually timed (min-total-time control).
    pub iters: usize,
    /// Mean wall time per applied delta, in milliseconds.
    pub wall_ms: f64,
    /// Wall-time ratio vs the `"full"` sample at the same edit rate.
    pub speedup: f64,
    /// Logical work of one instrumented application: the sum of every
    /// `discovery.*` and `repair.*` counter it incremented.
    pub work_counters: u64,
}

/// The full-vs-delta report for the `incremental` bench target — the
/// [`ScalingReport`] envelope keyed by (config, edit rate), with each
/// sample carrying the logical-work counter sum that makes "fraction of
/// full work" checkable without rerunning the bench.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// Bench name — becomes the `BENCH_<bench>.json` file name.
    pub bench: String,
    /// Human-readable fixture description.
    pub fixture: String,
    /// Measured configurations, in measurement order.
    pub samples: Vec<IncrementalSample>,
    /// Run metrics from one untimed instrumented run of the workload,
    /// embedded under the `"metrics"` key when present.
    pub metrics: Option<RunMetrics>,
}

impl IncrementalReport {
    /// Start an empty report.
    pub fn new(bench: &str, fixture: &str) -> Self {
        IncrementalReport {
            bench: bench.to_string(),
            fixture: fixture.to_string(),
            samples: Vec::new(),
            metrics: None,
        }
    }

    /// Time at least `min_iters` runs of `f` (and at least
    /// [`min_sample_ms`] of wall time) and record the mean as the sample
    /// for `(config, edit_rate)`. Speedups are (re)derived per edit rate
    /// from that rate's `"full"` sample.
    pub fn measure<F: FnMut()>(
        &mut self,
        config: &str,
        edit_rate: f64,
        min_iters: usize,
        work_counters: u64,
        f: F,
    ) {
        let (iters, wall_ms) = run_timed(min_iters, f);
        self.samples.push(IncrementalSample {
            config: config.to_string(),
            edit_rate,
            iters,
            wall_ms,
            speedup: 1.0,
            work_counters,
        });
        let bases: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter(|s| s.config == "full")
            .map(|s| (s.edit_rate, s.wall_ms))
            .collect();
        for s in &mut self.samples {
            let base = bases
                .iter()
                .find(|(r, _)| *r == s.edit_rate)
                .map(|&(_, w)| w)
                .unwrap_or(s.wall_ms);
            s.speedup = if s.wall_ms > 0.0 {
                base / s.wall_ms
            } else {
                1.0
            };
        }
    }

    /// Render the JSON document.
    pub fn to_json(&self) -> String {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mode = if quick_mode() { "quick" } else { "full" };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.bench)));
        out.push_str(&format!("  \"fixture\": \"{}\",\n", escape(&self.fixture)));
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str(&format!("  \"parallelism\": {parallelism},\n"));
        if let Some(m) = &self.metrics {
            out.push_str("  \"metrics\": ");
            out.push_str(&m.to_json_object(2));
            out.push_str(",\n");
        }
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let comma = if i + 1 < self.samples.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"config\": \"{}\", \"edit_rate\": {:.4}, \"iters\": {}, \
                 \"wall_ms\": {:.3}, \"speedup\": {:.3}, \"work_counters\": {} }}{comma}\n",
                escape(&s.config),
                s.edit_rate,
                s.iters,
                s.wall_ms,
                s.speedup,
                s.work_counters
            ));
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

/// One measured configuration of the crowd bench: one aggregation mode
/// on one seeded fault plan, at the shared worker-answer budget.
#[derive(Debug, Clone)]
pub struct CrowdSample {
    /// Fault-plan label, e.g. `"spam40/0.75"`.
    pub plan: String,
    /// Aggregation mode label: `"plurality"` or `"dawid-skene"`.
    pub agg: String,
    /// Questions the mode answered within the budget.
    pub questions: usize,
    /// Worker answers spent (the budgeted resource).
    pub answers: usize,
    /// Fraction of answered questions matching the ground truth.
    pub accuracy: f64,
    /// Extra replicas issued on disagreement escalation.
    pub escalations: usize,
    /// Replica slots adaptive replication never had to issue.
    pub questions_saved: usize,
    /// Mean wall time of one full sweep run, in milliseconds.
    pub wall_ms: f64,
}

/// The quality report for the `crowd` bench target — the
/// [`ScalingReport`] envelope keyed by (fault plan, aggregation mode),
/// with accuracy-at-budget figures instead of speedups. The CI
/// `crowd-quality-smoke` job regenerates the same numbers through the
/// `crowd_quality_gate` test; this artifact records them.
#[derive(Debug, Clone)]
pub struct CrowdReport {
    /// Bench name — becomes the `BENCH_<bench>.json` file name.
    pub bench: String,
    /// Human-readable fixture description.
    pub fixture: String,
    /// Measured configurations, in measurement order.
    pub samples: Vec<CrowdSample>,
    /// Run metrics from one untimed instrumented run of the workload,
    /// embedded under the `"metrics"` key when present.
    pub metrics: Option<RunMetrics>,
}

impl CrowdReport {
    /// Start an empty report.
    pub fn new(bench: &str, fixture: &str) -> Self {
        CrowdReport {
            bench: bench.to_string(),
            fixture: fixture.to_string(),
            samples: Vec::new(),
            metrics: None,
        }
    }

    /// Record one (plan, mode) configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        plan: &str,
        agg: &str,
        questions: usize,
        answers: usize,
        accuracy: f64,
        escalations: usize,
        questions_saved: usize,
        wall_ms: f64,
    ) {
        self.samples.push(CrowdSample {
            plan: plan.to_string(),
            agg: agg.to_string(),
            questions,
            answers,
            accuracy,
            escalations,
            questions_saved,
            wall_ms,
        });
    }

    /// Render the JSON document.
    pub fn to_json(&self) -> String {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mode = if quick_mode() { "quick" } else { "full" };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.bench)));
        out.push_str(&format!("  \"fixture\": \"{}\",\n", escape(&self.fixture)));
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str(&format!("  \"parallelism\": {parallelism},\n"));
        if let Some(m) = &self.metrics {
            out.push_str("  \"metrics\": ");
            out.push_str(&m.to_json_object(2));
            out.push_str(",\n");
        }
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let comma = if i + 1 < self.samples.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"plan\": \"{}\", \"agg\": \"{}\", \"questions\": {}, \
                 \"answers\": {}, \"accuracy\": {:.4}, \"escalations\": {}, \
                 \"questions_saved\": {}, \"wall_ms\": {:.3} }}{comma}\n",
                escape(&s.plan),
                escape(&s.agg),
                s.questions,
                s.answers,
                s.accuracy,
                s.escalations,
                s.questions_saved,
                s.wall_ms
            ));
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

/// Minimal JSON string escaping — fixture names are plain ASCII, but a
/// stray quote must not corrupt the document.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_and_speedups() {
        let mut r = ScalingReport::new("unit", "toy");
        r.measure(1, 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.measure(2, 2, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(r.samples.len(), 2);
        assert!((r.samples[0].speedup - 1.0).abs() < 1e-9);
        assert!(r.samples[1].speedup > 1.0, "{:?}", r.samples);
        let json = r.to_json();
        for key in [
            "\"bench\"",
            "\"fixture\"",
            "\"mode\"",
            "\"parallelism\"",
            "\"samples\"",
            "\"threads\"",
            "\"iters\"",
            "\"wall_ms\"",
            "\"speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn min_total_time_tops_up_iterations() {
        // A microsecond-scale body must be iterated far beyond the
        // 2-iteration floor to accumulate min_sample_ms of wall time.
        let mut r = ScalingReport::new("unit", "toy");
        let mut count = 0usize;
        r.measure(1, 2, || count += 1);
        assert_eq!(r.samples[0].iters, count);
        assert!(count > 2, "min-total-time should demand more than {count}");
        assert!(r.samples[0].iters as f64 * r.samples[0].wall_ms >= min_sample_ms() * 0.9);
    }

    #[test]
    fn resolve_report_shape_and_speedups() {
        let mut r = ResolveReport::new("resolve", "toy", 0.25);
        r.triples = 1_234;
        r.measure("cold", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.measure("snapshot", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(r.samples.len(), 2);
        assert!((r.samples[0].speedup - 1.0).abs() < 1e-9);
        assert!(r.samples[1].speedup > 1.0, "{:?}", r.samples);
        let json = r.to_json();
        for key in [
            "\"bench\"",
            "\"fixture\"",
            "\"mode\"",
            "\"parallelism\"",
            "\"distinct_ratio\"",
            "\"triples\": 1234",
            "\"samples\"",
            "\"config\"",
            "\"cold\"",
            "\"snapshot\"",
            "\"iters\"",
            "\"wall_ms\"",
            "\"speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn serve_report_shape_and_percentiles() {
        let mut r = ServeReport::new("serve", "toy");
        // 100 latencies 1..=100 ms over 1 s of wall: 100 req/s,
        // p50 ≈ 50-51, p99 ≈ 99-100 by nearest rank.
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        r.record("cold", 4, &lat, 1_000.0);
        r.record("warm", 4, &[], 0.0); // degenerate batch stays finite
        let s = &r.samples[0];
        assert_eq!(s.requests, 100);
        assert!((s.req_per_s - 100.0).abs() < 1e-9);
        assert!((49.0..=52.0).contains(&s.p50_ms), "{}", s.p50_ms);
        assert!((98.0..=100.0).contains(&s.p99_ms), "{}", s.p99_ms);
        let empty = &r.samples[1];
        assert_eq!(empty.requests, 0);
        assert_eq!(empty.req_per_s, 0.0);
        let json = r.to_json();
        for key in [
            "\"bench\": \"serve\"",
            "\"config\": \"cold\"",
            "\"concurrency\": 4",
            "\"requests\": 100",
            "\"req_per_s\"",
            "\"p50_ms\"",
            "\"p99_ms\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn incremental_report_speedups_are_per_edit_rate() {
        let mut r = IncrementalReport::new("incremental", "toy");
        r.measure("full", 0.01, 2, 100, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.measure("delta", 0.01, 2, 5, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        r.measure("full", 0.1, 2, 100, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!((r.samples[0].speedup - 1.0).abs() < 1e-9);
        assert!(r.samples[1].speedup > 1.0, "{:?}", r.samples);
        assert!(
            (r.samples[2].speedup - 1.0).abs() < 1e-9,
            "each edit rate gets its own full baseline: {:?}",
            r.samples
        );
        let json = r.to_json();
        for key in [
            "\"bench\": \"incremental\"",
            "\"config\": \"full\"",
            "\"config\": \"delta\"",
            "\"edit_rate\": 0.0100",
            "\"work_counters\": 100",
            "\"work_counters\": 5",
            "\"iters\"",
            "\"wall_ms\"",
            "\"speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn crowd_report_shape() {
        let mut r = CrowdReport::new("crowd", "toy");
        r.record("honest/0.95", "plurality", 120, 360, 0.9833, 0, 0, 4.2);
        r.record("honest/0.95", "dawid-skene", 120, 253, 1.0, 0, 111, 3.1);
        let json = r.to_json();
        for key in [
            "\"bench\": \"crowd\"",
            "\"plan\": \"honest/0.95\"",
            "\"agg\": \"plurality\"",
            "\"agg\": \"dawid-skene\"",
            "\"questions\": 120",
            "\"answers\": 253",
            "\"accuracy\": 0.9833",
            "\"escalations\": 0",
            "\"questions_saved\": 111",
            "\"wall_ms\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.ends_with("  ]\n}\n"), "{json}");
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
        let mut r = ScalingReport::new("unit", "toy");
        r.measure(1, 1, || {});
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
