//! # katara-obs — zero-dependency observability for KATARA
//!
//! A small from-scratch metrics and tracing layer (no external
//! dependencies, per the workspace's vendored-shim policy) in the same
//! spirit as `katara-exec`: the pipeline's hot paths record *what
//! happened* — KB probes, snapshot cache hits, crowd spend, repair-search
//! effort — without ever changing *what is computed*.
//!
//! ## The determinism split
//!
//! Everything a [`Recorder`] collects falls into exactly one of two
//! buckets:
//!
//! * **deterministic** — [`Counter`]s, [`Gauge`]s, and [`Histogram`]s
//!   whose values are a pure function of the inputs. Instrumented call
//!   sites increment *per work item*, never per worker or per memo-cache
//!   miss, so the totals are byte-identical for every `--threads N` and
//!   for snapshot vs direct resolution. CI diffs this section of two runs
//!   byte-for-byte.
//! * **non-deterministic** — wall-clock [`Span`] timings (and the worker
//!   count), quantized to milliseconds and kept in a separate JSON
//!   section precisely so the deterministic core stays diffable.
//!
//! ## Overhead
//!
//! Instrumentation is always compiled in and dispatched through a
//! `&dyn Recorder`; the [`NoopRecorder`] turns every call into an empty
//! virtual call, which is within measurement noise for every bench in
//! this workspace (the per-item work behind each call is hundreds of
//! times larger). The live [`RunRecorder`] keeps counters in per-thread
//! shards of cache-line-aligned atomics so instrumented hot paths never
//! contend under the `katara-exec` worker pool.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

macro_rules! metric_enum {
    ($(#[$meta:meta])* $vis:vis enum $enum_name:ident { $($variant:ident => $name:literal,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        $vis enum $enum_name {
            $(
                #[doc = concat!("The `", $name, "` metric.")]
                $variant,
            )*
        }

        impl $enum_name {
            /// Every variant, in emission (sorted-name) order.
            pub const ALL: &'static [$enum_name] = &[$($enum_name::$variant,)*];

            /// Number of variants.
            pub const COUNT: usize = $enum_name::ALL.len();

            /// The stable dotted name used as the JSON key.
            pub fn name(self) -> &'static str {
                match self {
                    $($enum_name::$variant => $name,)*
                }
            }
        }
    };
}

metric_enum! {
    /// Deterministic event counters. Values are a pure function of the
    /// run's inputs: call sites increment per logical work item, so every
    /// total is identical across thread counts and resolve modes.
    ///
    /// Variants are declared in sorted-name order; [`Counter::ALL`] is
    /// therefore also the stable JSON key order.
    pub enum Counter {
        AnnotationCrowdQuestions => "annotation.crowd_questions",
        AnnotationEnrichedEntities => "annotation.enriched_entities",
        AnnotationEnrichedFacts => "annotation.enriched_facts",
        CrowdBudgetDenied => "crowd.budget_denied",
        CrowdEmIterations => "crowd.em_iterations",
        CrowdEscalations => "crowd.escalations",
        CrowdNoQuorumQuestions => "crowd.no_quorum_questions",
        CrowdPosteriorConfident => "crowd.posterior_confident",
        CrowdQuestionsAsked => "crowd.questions_asked",
        CrowdQuestionsRetried => "crowd.questions_retried",
        CrowdQuestionsSaved => "crowd.questions_saved",
        DeltaNoopEdits => "delta.noop_edits",
        DeltaPatternsRescored => "delta.patterns_rescored",
        DeltaTuplesRepaired => "delta.tuples_repaired",
        DeltaTuplesTouched => "delta.tuples_touched",
        DeltaValuesResolved => "delta.values_resolved",
        DiscoveryHeapPops => "discovery.heap_pops",
        DiscoveryPatternsScored => "discovery.patterns_scored",
        DiscoveryRelProbes => "discovery.rel_probes",
        DiscoveryTruncated => "discovery.truncated",
        DiscoveryTypeProbes => "discovery.type_probes",
        IngestQuarantined => "ingest.quarantined",
        IngestRepairedEdges => "ingest.repaired_edges",
        JournalAppends => "journal.appends",
        JournalCheckpoints => "journal.checkpoints",
        JournalFsyncs => "journal.fsyncs",
        JournalReplayedRecords => "journal.replayed_records",
        JournalRetries => "journal.retries",
        KbLabelCandidatesKept => "kb.label_candidates_kept",
        KbLabelCandidatesScored => "kb.label_candidates_scored",
        KbLabelFuzzyLookups => "kb.label_fuzzy_lookups",
        KbLabelPostingsScanned => "kb.label_postings_scanned",
        RepairBudgetStopped => "repair.budget_stopped",
        RepairGraphsBuilt => "repair.graphs_built",
        RepairIndexTruncated => "repair.index_truncated",
        RepairTopkTruncations => "repair.topk_truncations",
        RepairTuplesRepaired => "repair.tuples_repaired",
        ResolveCandidatesHit => "resolve.candidates_hit",
        ResolveCandidatesLookups => "resolve.candidates_lookups",
        ResolvePairHit => "resolve.pair_hit",
        ResolvePairLookups => "resolve.pair_lookups",
        ResolvePairMiss => "resolve.pair_miss",
        ResolveTypesHit => "resolve.types_hit",
        ResolveTypesLookups => "resolve.types_lookups",
        ResolveValuesEvicted => "resolve.values_evicted",
        ResolveValuesRepatched => "resolve.values_repatched",
        ServeDegraded => "serve.degraded",
        ServeEnrichmentDropped => "serve.enrichment_dropped",
        ServeQuarantined => "serve.quarantined",
        ServeRequests => "serve.requests",
        ServeSessionsEvicted => "serve.sessions_evicted",
        ServeShed => "serve.shed",
        ServeSnapshotHit => "serve.snapshot_hit",
        ServeSnapshotMiss => "serve.snapshot_miss",
        ServeTimeouts => "serve.timeouts",
        ValidationNoQuorumVariables => "validation.no_quorum_variables",
        ValidationQuestions => "validation.questions",
    }
}

metric_enum! {
    /// Deterministic point-in-time values, set once (or last-write-wins).
    /// Unset gauges are omitted from the export; whether a gauge is set
    /// depends only on the run's configuration, never on thread count.
    pub enum Gauge {
        CrowdBudgetRemaining => "crowd.budget_remaining",
        JournalLag => "journal.lag",
        ResolveDistinctValues => "resolve.distinct_values",
        ResolveNonNullCells => "resolve.non_null_cells",
        ServeQueueDepth => "serve.queue_depth",
        TableColumns => "table.columns",
        TableRows => "table.rows",
    }
}

metric_enum! {
    /// Deterministic value distributions over power-of-two buckets.
    /// Observed per work item, so bucket counts are thread-count
    /// invariant like every other deterministic metric.
    pub enum Histogram {
        RepairChangesPerRepair => "repair.changes_per_repair",
        RepairRepairsPerTuple => "repair.repairs_per_tuple",
    }
}

/// Buckets per histogram: bucket 0 holds the value 0, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, and the last bucket saturates.
pub const HISTOGRAM_BUCKETS: usize = 16;

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The instrumentation sink. Hot paths hold a `&dyn Recorder` (usually
/// through an `Arc`) and emit events; the implementation decides whether
/// anything is stored.
///
/// Implementations must be thread-safe: counters and histograms are hit
/// from inside `katara-exec` worker pools. Spans are only entered from
/// orchestrating (single-threaded) code, but the trait keeps them on the
/// same object so call sites need exactly one handle.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// True when events are actually recorded. Call sites may use this to
    /// skip building expensive event payloads; they must not skip the
    /// work being measured.
    fn enabled(&self) -> bool;

    /// Add `n` to a counter.
    fn incr_by(&self, counter: Counter, n: u64);

    /// Add 1 to a counter.
    fn incr(&self, counter: Counter) {
        self.incr_by(counter, 1);
    }

    /// Set a gauge (last write wins).
    fn set_gauge(&self, gauge: Gauge, value: u64);

    /// Record one observation into a histogram.
    fn observe(&self, histogram: Histogram, value: u64);

    /// Open a span and return its token; pair with [`Recorder::span_exit`].
    /// Prefer the RAII [`Span::enter`] guard over calling this directly.
    fn span_enter(&self, name: &'static str) -> usize;

    /// Close the span identified by `token`.
    fn span_exit(&self, token: usize);
}

/// A recorder that drops everything. The pipeline default: all
/// instrumentation collapses to empty virtual calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn incr_by(&self, _counter: Counter, _n: u64) {}
    fn set_gauge(&self, _gauge: Gauge, _value: u64) {}
    fn observe(&self, _histogram: Histogram, _value: u64) {}
    fn span_enter(&self, _name: &'static str) -> usize {
        usize::MAX
    }
    fn span_exit(&self, _token: usize) {}
}

/// RAII span guard: records the wall time between [`Span::enter`] and
/// drop under the recorder's currently open span (hierarchical nesting).
pub struct Span<'a> {
    rec: &'a dyn Recorder,
    token: usize,
}

impl<'a> Span<'a> {
    /// Open a span named `name` on `rec`; it closes when the guard drops.
    pub fn enter(rec: &'a dyn Recorder, name: &'static str) -> Self {
        Span {
            rec,
            token: rec.span_enter(name),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.rec.span_exit(self.token);
    }
}

const SHARDS: usize = 8;

/// One cache line (or more) of counters private to a shard, so workers
/// incrementing the same [`Counter`] never bounce a line between cores.
#[repr(align(64))]
struct Shard {
    counts: [AtomicU64; Counter::COUNT],
}

impl Shard {
    fn new() -> Self {
        Shard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Round-robin shard assignment per thread: cheap, collision-tolerant
/// (two threads sharing a shard is correct, just marginally slower).
fn shard_id() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<Option<usize>> = const { Cell::new(None) };
    }
    SHARD.with(|s| match s.get() {
        Some(i) => i,
        None => {
            let i = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(Some(i));
            i
        }
    })
}

struct GaugeCell {
    value: AtomicU64,
    set: AtomicBool,
}

struct HistCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

struct SpanRecord {
    name: &'static str,
    depth: usize,
    start_ns: u64,
    dur_ns: Option<u64>,
}

/// Most spans a [`RunRecorder`] keeps. A CLI or bench run records a few
/// dozen; a daemon records every request into one recorder, so its log
/// keeps only the most recent spans.
const SPAN_CAP: usize = 4096;

#[derive(Default)]
struct SpanLog {
    /// The most recent spans, at most [`SPAN_CAP`], in enter order.
    records: VecDeque<SpanRecord>,
    /// How many spans were evicted: the token of `records[0]`.
    evicted: usize,
    /// Open-span tokens per entering thread, so concurrent requests nest
    /// separately; a thread's stack is dropped when it empties.
    stacks: HashMap<ThreadId, Vec<usize>>,
}

/// The live recorder: sharded atomic counters, gauges, histograms, and a
/// hierarchical log of the most recent spans, snapshotted into a
/// [`RunMetrics`] at the end of a run.
pub struct RunRecorder {
    shards: Vec<Shard>,
    gauges: [GaugeCell; Gauge::COUNT],
    hists: [HistCells; Histogram::COUNT],
    spans: Mutex<SpanLog>,
    epoch: Instant,
}

impl Default for RunRecorder {
    fn default() -> Self {
        RunRecorder::new()
    }
}

impl std::fmt::Debug for RunRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunRecorder").finish_non_exhaustive()
    }
}

impl RunRecorder {
    /// A fresh recorder with all metrics at zero and the span clock
    /// starting now.
    pub fn new() -> Self {
        RunRecorder {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            gauges: std::array::from_fn(|_| GaugeCell {
                value: AtomicU64::new(0),
                set: AtomicBool::new(false),
            }),
            hists: std::array::from_fn(|_| HistCells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
            spans: Mutex::new(SpanLog::default()),
            epoch: Instant::now(),
        }
    }

    /// The current total of a counter (sum over all shards).
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counts[counter as usize].load(Ordering::Relaxed))
            .sum()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn span_log(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        // A poisoned lock only means a panicking thread held it; the log
        // itself is still structurally sound.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Freeze everything recorded so far into an exportable snapshot.
    pub fn snapshot(&self) -> RunMetrics {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.counter_total(c)))
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .filter(|&&g| self.gauges[g as usize].set.load(Ordering::Relaxed))
            .map(|&g| {
                (
                    g.name(),
                    self.gauges[g as usize].value.load(Ordering::Relaxed),
                )
            })
            .collect();
        let histograms = Histogram::ALL
            .iter()
            .map(|&h| {
                let cells = &self.hists[h as usize];
                (
                    h.name(),
                    HistogramSnapshot {
                        count: cells.count.load(Ordering::Relaxed),
                        sum: cells.sum.load(Ordering::Relaxed),
                        buckets: cells
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                    },
                )
            })
            .collect();
        let now = self.now_ns();
        let spans = self
            .span_log()
            .records
            .iter()
            .map(|r| SpanSnapshot {
                name: r.name,
                depth: r.depth,
                // A still-open span reads as "up to now" — better than
                // dropping it from the trace.
                wall_ns: r.dur_ns.unwrap_or_else(|| now.saturating_sub(r.start_ns)),
            })
            .collect();
        RunMetrics {
            counters,
            gauges,
            histograms,
            spans,
            threads: 0,
        }
    }
}

impl Recorder for RunRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn incr_by(&self, counter: Counter, n: u64) {
        self.shards[shard_id()].counts[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn set_gauge(&self, gauge: Gauge, value: u64) {
        let cell = &self.gauges[gauge as usize];
        cell.value.store(value, Ordering::Relaxed);
        cell.set.store(true, Ordering::Relaxed);
    }

    fn observe(&self, histogram: Histogram, value: u64) {
        let cells = &self.hists[histogram as usize];
        cells.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
    }

    fn span_enter(&self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let mut guard = self.span_log();
        let log = &mut *guard;
        let token = log.evicted + log.records.len();
        let stack = log.stacks.entry(std::thread::current().id()).or_default();
        log.records.push_back(SpanRecord {
            name,
            depth: stack.len(),
            start_ns,
            dur_ns: None,
        });
        stack.push(token);
        if log.records.len() > SPAN_CAP {
            log.records.pop_front();
            log.evicted += 1;
        }
        token
    }

    fn span_exit(&self, token: usize) {
        let now = self.now_ns();
        let mut guard = self.span_log();
        let log = &mut *guard;
        let thread = std::thread::current().id();
        if let Some(stack) = log.stacks.get_mut(&thread) {
            if let Some(pos) = stack.iter().rposition(|&t| t == token) {
                // Closing a span implicitly closes anything still open
                // below it (defensive — guards normally drop in LIFO
                // order).
                stack.truncate(pos);
            }
            if stack.is_empty() {
                log.stacks.remove(&thread);
            }
        }
        // An evicted span has nothing left to close.
        let index = token.checked_sub(log.evicted);
        if let Some(rec) = index.and_then(|i| log.records.get_mut(i)) {
            if rec.dur_ns.is_none() {
                rec.dur_ns = Some(now.saturating_sub(rec.start_ns));
            }
        }
    }
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts; see [`HISTOGRAM_BUCKETS`].
    pub buckets: Vec<u64>,
}

/// Snapshot of one finished (or still-open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: &'static str,
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// Wall time in nanoseconds (quantized to milliseconds on export).
    pub wall_ns: u64,
}

/// An exportable snapshot of one run's metrics, split into the
/// deterministic core (counters/gauges/histograms, byte-diffable across
/// thread counts) and the non-deterministic timing section (spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMetrics {
    /// Every counter with its total, in stable sorted-name order.
    pub counters: Vec<(&'static str, u64)>,
    /// The gauges that were set, in stable sorted-name order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Every histogram, in stable sorted-name order.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// The span log in enter order (pre-order of the span tree).
    pub spans: Vec<SpanSnapshot>,
    /// Worker-thread count the run was configured with (0 = unknown).
    /// Reported in the non-deterministic section: it is exactly the knob
    /// the deterministic section must be invariant to.
    pub threads: usize,
}

impl RunMetrics {
    /// Value of a counter by dotted name (0 if unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Value of a gauge by dotted name (`None` if unset).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The deterministic section as a JSON object, with `indent` leading
    /// spaces on its closing brace. Byte-identical across thread counts
    /// for the same logical run — CI diffs exactly this string.
    pub fn deterministic_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut out = String::from("{\n");
        out.push_str(&format!("{pad}  \"counters\": {{\n"));
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            out.push_str(&format!("{pad}    \"{name}\": {v}{comma}\n"));
        }
        out.push_str(&format!("{pad}  }},\n"));
        out.push_str(&format!("{pad}  \"gauges\": {{"));
        if self.gauges.is_empty() {
            out.push_str("},\n");
        } else {
            out.push('\n');
            for (i, (name, v)) in self.gauges.iter().enumerate() {
                let comma = if i + 1 < self.gauges.len() { "," } else { "" };
                out.push_str(&format!("{pad}    \"{name}\": {v}{comma}\n"));
            }
            out.push_str(&format!("{pad}  }},\n"));
        }
        out.push_str(&format!("{pad}  \"histograms\": {{\n"));
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "{pad}    \"{name}\": {{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}{comma}\n",
                h.count,
                h.sum,
                buckets.join(",")
            ));
        }
        out.push_str(&format!("{pad}  }}\n"));
        out.push_str(&format!("{pad}}}"));
        out
    }

    /// The full metrics document as a JSON object with `indent` leading
    /// spaces on nested lines — for embedding into a larger document
    /// (katara-bench embeds this into `BENCH_*.json`).
    pub fn to_json_object(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut out = String::from("{\n");
        out.push_str(&format!("{pad}  \"schema\": \"katara-run-metrics/v1\",\n"));
        out.push_str(&format!("{pad}  \"deterministic\": "));
        out.push_str(&self.deterministic_json(indent + 2));
        out.push_str(",\n");
        out.push_str(&format!("{pad}  \"nondeterministic\": {{\n"));
        out.push_str(&format!("{pad}    \"threads\": {},\n", self.threads));
        out.push_str(&format!("{pad}    \"spans\": ["));
        if self.spans.is_empty() {
            out.push_str("]\n");
        } else {
            out.push('\n');
            for (i, s) in self.spans.iter().enumerate() {
                let comma = if i + 1 < self.spans.len() { "," } else { "" };
                out.push_str(&format!(
                    "{pad}      {{ \"name\": \"{}\", \"depth\": {}, \"wall_ms\": {:.3} }}{comma}\n",
                    s.name,
                    s.depth,
                    s.wall_ns as f64 / 1e6
                ));
            }
            out.push_str(&format!("{pad}    ]\n"));
        }
        out.push_str(&format!("{pad}  }}\n"));
        out.push_str(&format!("{pad}}}"));
        out
    }

    /// The full metrics document as a standalone JSON file body.
    pub fn to_json(&self) -> String {
        let mut out = self.to_json_object(0);
        out.push('\n');
        out
    }

    /// Human-readable span tree (for `--trace`): one line per span,
    /// indented by depth, with quantized wall times.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{:indent$}{:<width$} {:>9.3} ms\n",
                "",
                s.name,
                s.wall_ns as f64 / 1e6,
                indent = s.depth * 2,
                width = 24usize.saturating_sub(s.depth * 2),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_counters_merge_across_threads() {
        let rec = RunRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        rec.incr(Counter::DiscoveryTypeProbes);
                    }
                    rec.incr_by(Counter::DiscoveryRelProbes, 5);
                });
            }
        });
        assert_eq!(rec.counter_total(Counter::DiscoveryTypeProbes), 8000);
        assert_eq!(rec.counter_total(Counter::DiscoveryRelProbes), 40);
        assert_eq!(rec.counter_total(Counter::RepairGraphsBuilt), 0);
        let m = rec.snapshot();
        assert_eq!(m.counter("discovery.type_probes"), 8000);
        assert_eq!(m.counter("discovery.rel_probes"), 40);
    }

    #[test]
    fn span_nesting_and_drop_ordering() {
        let rec = RunRecorder::new();
        {
            let _outer = Span::enter(&rec, "outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = Span::enter(&rec, "inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _sibling = Span::enter(&rec, "sibling");
        }
        let m = rec.snapshot();
        let names: Vec<&str> = m.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["outer", "inner", "sibling"]);
        let depths: Vec<usize> = m.spans.iter().map(|s| s.depth).collect();
        assert_eq!(depths, vec![0, 1, 1]);
        // Pre-order + LIFO drop: the parent's wall time covers the child's.
        assert!(m.spans[0].wall_ns >= m.spans[1].wall_ns);
        assert!(m.spans.iter().all(|s| s.wall_ns > 0));
    }

    #[test]
    fn span_log_keeps_only_the_most_recent_spans() {
        let rec = RunRecorder::new();
        let first = Span::enter(&rec, "first");
        for _ in 0..SPAN_CAP + 10 {
            drop(Span::enter(&rec, "request"));
        }
        drop(first); // evicted: its exit records no wall time
        let m = rec.snapshot();
        assert_eq!(m.spans.len(), SPAN_CAP);
        assert!(m.spans.iter().all(|s| s.name == "request" && s.depth == 1));
        // The evicted span was still popped off its thread's stack.
        drop(Span::enter(&rec, "after"));
        assert_eq!(rec.snapshot().spans.last().map(|s| s.depth), Some(0));
    }

    #[test]
    fn concurrent_threads_nest_spans_separately() {
        let rec = &RunRecorder::new();
        let both_open = &std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for name in ["a", "b"] {
                scope.spawn(move || {
                    let _span = Span::enter(rec, name);
                    both_open.wait();
                });
            }
        });
        let m = rec.snapshot();
        assert_eq!(m.spans.len(), 2);
        assert!(m.spans.iter().all(|s| s.depth == 0), "{:?}", m.spans);
    }

    #[test]
    fn out_of_order_drop_is_tolerated() {
        let rec = RunRecorder::new();
        let outer = Span::enter(&rec, "outer");
        let inner = Span::enter(&rec, "inner");
        drop(outer); // closes inner implicitly
        drop(inner); // late exit must not panic or corrupt the log
        let m = rec.snapshot();
        assert_eq!(m.spans.len(), 2);
        assert_eq!(m.spans[1].depth, 1);
        // A fresh span after the mess lands back at the root.
        drop(Span::enter(&rec, "after"));
        let m = rec.snapshot();
        assert_eq!(m.spans[2].depth, 0);
    }

    #[test]
    fn histogram_buckets_and_sums() {
        let rec = RunRecorder::new();
        for v in [0u64, 1, 2, 3, 1000] {
            rec.observe(Histogram::RepairRepairsPerTuple, v);
        }
        let m = rec.snapshot();
        let (_, h) = m
            .histograms
            .iter()
            .find(|(n, _)| *n == "repair.repairs_per_tuple")
            .expect("histogram present");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[10], 1); // 1000 in [512, 1024)
        assert_eq!(h.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn bucket_saturation() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.incr(Counter::CrowdQuestionsAsked);
        rec.set_gauge(Gauge::TableRows, 9);
        rec.observe(Histogram::RepairRepairsPerTuple, 3);
        drop(Span::enter(&rec, "ignored"));
    }

    #[test]
    fn counter_names_are_sorted_and_unique() {
        for kind in [
            Counter::ALL.iter().map(|c| c.name()).collect::<Vec<_>>(),
            Gauge::ALL.iter().map(|g| g.name()).collect::<Vec<_>>(),
            Histogram::ALL.iter().map(|h| h.name()).collect::<Vec<_>>(),
        ] {
            let mut sorted = kind.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(kind, sorted, "names must be declared sorted and unique");
        }
    }

    #[test]
    fn deterministic_json_ignores_spans_and_threads() {
        let a = RunRecorder::new();
        let b = RunRecorder::new();
        a.incr_by(Counter::ValidationQuestions, 7);
        b.incr_by(Counter::ValidationQuestions, 7);
        a.set_gauge(Gauge::TableRows, 3);
        b.set_gauge(Gauge::TableRows, 3);
        drop(Span::enter(&a, "only-in-a"));
        let mut ma = a.snapshot();
        let mb = b.snapshot();
        ma.threads = 8;
        assert_ne!(ma.to_json(), mb.to_json());
        assert_eq!(ma.deterministic_json(2), mb.deterministic_json(2));
    }

    #[test]
    fn json_shape() {
        let rec = RunRecorder::new();
        rec.incr(Counter::ResolveTypesHit);
        rec.set_gauge(Gauge::ResolveDistinctValues, 4);
        drop(Span::enter(&rec, "clean"));
        let mut m = rec.snapshot();
        m.threads = 2;
        let json = m.to_json();
        for key in [
            "\"schema\": \"katara-run-metrics/v1\"",
            "\"deterministic\": {",
            "\"counters\": {",
            "\"gauges\": {",
            "\"histograms\": {",
            "\"nondeterministic\": {",
            "\"threads\": 2",
            "\"spans\": [",
            "\"resolve.types_hit\": 1",
            "\"resolve.distinct_values\": 4",
            "\"name\": \"clean\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Counters appear in sorted order.
        let pos = |needle: &str| json.find(needle).expect("key present");
        assert!(pos("annotation.crowd_questions") < pos("crowd.budget_denied"));
        assert!(pos("crowd.budget_denied") < pos("validation.questions"));
        // The trace renders one line per span.
        assert_eq!(m.render_trace().lines().count(), 1);
        assert!(m.render_trace().contains("clean"));
    }

    #[test]
    fn unset_gauges_are_omitted() {
        let rec = RunRecorder::new();
        rec.set_gauge(Gauge::TableRows, 1);
        let m = rec.snapshot();
        assert_eq!(m.gauge("table.rows"), Some(1));
        assert_eq!(m.gauge("table.columns"), None);
        assert!(!m.to_json().contains("table.columns"));
    }
}
