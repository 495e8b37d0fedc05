//! KATARA benchmark: one command, seeded inputs, checked outputs,
//! end-to-end metrics or (with `--trace 1`) per-layer metrics. See
//! `README.md` for the workloads and why `BENCHMARK.json` lists two of
//! the three.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-cold|serve-warm|delta-stream \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Progress goes to stderr. Stdout carries a report line (environment,
//! fixture identity, checks, the non-gating metrics) and, last, the
//! result line `{"correct", "attempted", "failed", "metrics"}`. Traced
//! runs also write their span log to `.perfbench_out/`.

mod batch;
mod delta_stream;
mod fixture;
mod http;
mod mem;
mod pipeline;
mod report;
mod serve_warm;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use katara_kb::Kb;
use katara_table::Table;

use report::{Values, END_TO_END, INFO, PER_LAYER};
use stats::Tally;
use trace::{SpanRec, Tracer};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed; 0 reproduces the repository's resolve-bench fixture.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Traced (per-layer) run instead of a timed one.
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["batch-cold", "serve-warm", "delta-stream"];

const USAGE: &str = "usage: perfbench --workload batch-cold|serve-warm|delta-stream \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Closed-loop pacing for the timed phase: another operation starts only
/// if the previous one's duration predicts it ends inside the window
/// (the first operation always starts).
#[derive(Debug)]
pub struct Window {
    end: Instant,
}

impl Window {
    /// A window of `seconds` from now.
    pub fn new(seconds: u64) -> Self {
        Window {
            end: Instant::now() + Duration::from_secs(seconds),
        }
    }

    /// Whether to start another operation after `done` operations, the
    /// last of which took `last`.
    pub fn admit(&self, done: usize, last: Duration) -> bool {
        done == 0 || Instant::now() + last <= self.end
    }
}

/// Per-layer span names and the metric each feeds.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("kb.load", "kb.load_ms"),
    ("serve.warmup", "serve.warmup_ms"),
    ("delta.bootstrap", "delta.bootstrap_ms"),
    ("resolve.build", "resolve.build_ms"),
    ("resolve.labels", "resolve.labels_ms"),
    ("resolve.types", "resolve.types_ms"),
    ("resolve.pair_memo", "resolve.pair_memo_ms"),
    ("discovery.run", "discovery.run_ms"),
    ("validation.run", "validation.run_ms"),
    ("annotation.run", "annotation.run_ms"),
    ("repair.index", "repair.index_ms"),
    ("repair.generate", "repair.generate_ms"),
    ("kb.clone", "kb.clone_ms"),
    ("table.csv_parse", "table.csv_parse_ms"),
    ("table.delta_parse", "table.delta_parse_ms"),
    ("delta.replay", "delta.replay_ms"),
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Metric values by name.
    pub values: Values,
    /// Extra report-line members, as raw JSON.
    info: Vec<(&'static str, String)>,
    /// Named output checks and whether they held.
    checks: Vec<(&'static str, bool)>,
}

impl RunOutput {
    /// Start a run's output, stamped with the fixture identity (`triples`
    /// from [`triples`], read while the KB is at hand).
    pub fn new(triples: usize, inputs: &fixture::Inputs, workload_tables: &[Table]) -> Self {
        let mut out = RunOutput::default();
        out.info.push((
            "fixture",
            format!(
                "{{\"seed\": {}, \"triples\": {triples}, \"rows\": {}, \"distinct_values\": {}, \
                 \"workload_rows\": {}, \"workload_distinct_values\": {}, \"generate_s\": {}}}",
                inputs.seed,
                inputs.table.num_rows(),
                fixture::distinct_values(std::slice::from_ref(&inputs.table)),
                workload_tables.iter().map(Table::num_rows).sum::<usize>(),
                fixture::distinct_values(workload_tables),
                report::num(inputs.generate_s),
            ),
        ));
        out
    }

    /// Record a named output check; a failing check makes the run
    /// incorrect (callers also count it against an operation).
    pub fn check(&mut self, name: &'static str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, held)) => *held &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    /// End-to-end metrics from the timed phase: latencies in ms, its wall
    /// time, and the peak RSS read right after it.
    pub fn finish_timed(
        &mut self,
        latencies: &[f64],
        wall: Duration,
        peak_mb: f64,
        peak_reset: bool,
    ) {
        let sorted = stats::sorted(latencies);
        let tail = stats::tail(&sorted);
        self.values.set("latency_p50_ms", stats::median(latencies));
        self.values.set("latency_tail_ms", tail.value);
        self.values.set(
            "requests_per_s",
            latencies.len() as f64 / wall.as_secs_f64(),
        );
        self.values.set("peak_rss_mb", peak_mb);
        self.info.push((
            "latency_tail",
            format!(
                "{{\"percentile\": {}, \"beyond\": {}, \"samples\": {}}}",
                tail.percentile, tail.beyond, tail.samples
            ),
        ));
        self.info.push(("peak_rss_reset", peak_reset.to_string()));
    }

    /// Per-layer self times from the span log: each layer's summed self
    /// time over the number of operations it appeared in.
    pub fn layer_times(&mut self, spans: &[SpanRec], selfs: &[u64]) {
        for &(span, metric) in LAYER_SPANS {
            let mut ops: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.op)
                .collect();
            ops.sort_unstable();
            ops.dedup();
            if !ops.is_empty() {
                let ms = trace::self_ms(spans, selfs, span);
                self.values.set(metric, ms / ops.len() as f64);
            }
        }
    }

    /// `trace.overhead_pct` from `(traced, latency_ms)` samples of one
    /// timed phase in which half the operations ran under spans.
    pub fn overhead_from(&mut self, samples: impl Iterator<Item = (bool, f64)>) {
        let (on, off): (Vec<_>, Vec<_>) = samples.partition(|(traced, _)| *traced);
        if on.is_empty() || off.is_empty() {
            return;
        }
        let p50 = |v: &[(bool, f64)]| stats::median(&v.iter().map(|s| s.1).collect::<Vec<_>>());
        let (on, off) = (p50(&on), p50(&off));
        self.values
            .set("trace.overhead_pct", 100.0 * (on - off) / off);
    }
}

/// Triples in `kb`: facts, type assertions and entity labels.
pub fn triples(kb: &Kb) -> usize {
    kb.num_facts() + kb.num_type_assertions() + kb.num_entities()
}

/// The environment every result is stamped with: numbers from another
/// box, profile or thread setting must not be compared.
fn environment(args: &Args) -> String {
    let server = katara_serve::ServerConfig::default();
    format!(
        "{{\"available_parallelism\": {}, \"pipeline_threads\": {}, \"server_threads\": {}, \
         \"server_max_in_flight\": {}, \"build_profile\": {}, \"os\": {}, \"arch\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        std::thread::available_parallelism().map_or(0, usize::from),
        katara_core::KataraConfig::default().threads.get(),
        server.threads.get(),
        server.max_in_flight,
        report::string(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        report::string(std::env::consts::OS),
        report::string(std::env::consts::ARCH),
        report::string(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
    )
}

/// Write the span log under `.perfbench_out/` in the working directory.
fn write_trace(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(".perfbench_out");
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "batch-cold" => batch::run(&args, &tracer),
        "serve-warm" => serve_warm::run(&args, &tracer),
        _ => delta_stream::run(&args, &tracer),
    };
    if args.trace {
        write_trace(&args, &tracer);
    }
    if out.checks.iter().any(|(_, ok)| !ok) && out.tally.failed == 0 {
        out.tally.fail_completed();
    }
    out.values.set("fail_ratio", out.tally.fail_ratio());
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(n, ok)| format!("{}: {ok}", report::string(n)))
        .collect();
    let mut line = format!(
        "{{\"perfbench\": \"report\", \"env\": {}, \"checks\": {{{}}}, \"other_metrics\": {}, \
         \"run_s\": {}",
        environment(&args),
        checks.join(", "),
        out.values.json_set(INFO),
        report::num(started.elapsed().as_secs_f64()),
    );
    let t = &out.tally;
    line.push_str(&format!(
        ", \"failures\": {{\"shed\": {}, \"server_errors\": {}, \"check_failures\": {}}}",
        t.shed, t.server_errors, t.check_failures
    ));
    for (key, json) in &out.info {
        line.push_str(&format!(", {}: {json}", report::string(key)));
    }
    line.push('}');
    println!("{line}");
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        report::result_line(&out.tally, &out.values.json(names))
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = args(&["--workload", "serve-warm"]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (0, 10, false));
        let a = args(&[
            "--workload",
            "delta-stream",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "batch-cold", "--seed"]).is_err());
        assert!(args(&["--workload", "batch-cold", "--seed", "x"]).is_err());
    }

    #[test]
    fn the_window_always_admits_one_operation() {
        let w = Window::new(0);
        assert!(w.admit(0, Duration::from_secs(100)));
        assert!(!w.admit(1, Duration::from_millis(1)));
        let w = Window::new(60);
        assert!(w.admit(5, Duration::from_millis(10)));
        assert!(!w.admit(5, Duration::from_secs(120)));
    }
}
