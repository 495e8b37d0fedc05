//! # katara-cli — command-line KATARA
//!
//! ```text
//! katara clean    --table data.csv --kb kb.nt [--crowd MODE] [--k N]
//!                 [--out repaired.csv] [--enriched-kb out.nt]
//!                 [--max-questions N] [--strict|--lenient] [--threads N]
//!                 [--metrics OUT.json] [--trace] [--delta EDITS.csv]
//!                 [--crowd-agg plurality|dawid-skene]
//! katara discover --table data.csv --kb kb.nt [--k N] [--strict|--lenient]
//!                 [--threads N]
//! katara kb-stats --kb kb.nt [--strict|--lenient]
//! katara serve    --kb kb.nt [--addr HOST:PORT] [--crowd MODE]
//!                 [--max-in-flight N] [--threads N] [--k N]
//!                 [--default-deadline-ms N] [--strict|--lenient]
//!                 [--journal-dir DIR]
//! katara recover  --journal-dir DIR [--verify] [--out KB.nt]
//! ```
//!
//! The KB is N-Triples (see `katara_kb::ntriples`); tables are CSV with a
//! header row. Crowd modes:
//!
//! * `interactive` — questions are printed to the terminal and answered
//!   on stdin (you are the expert crowd);
//! * `trust` — missing KB facts are presumed true (the table is trusted;
//!   maximal enrichment, no error flags);
//! * `skeptic` — missing KB facts are presumed false (the KB is trusted;
//!   everything unsupported is flagged and repaired);
//! * `facts:FILE` — answer from a TSV of known true statements
//!   (`subject<TAB>property<TAB>object`); anything else is false.
//!
//! `--max-questions N` caps the crowd budget; when it runs dry the
//! pipeline degrades gracefully and the binary exits 3 (0 = clean,
//! 1 = error, 2 = usage).
//!
//! `--strict` (the default) aborts on the first malformed KB statement or
//! CSV record with a line-numbered error. `--lenient` quarantines
//! malformed lines, repairs KB hierarchy cycles by dropping the closing
//! edge, reports what was lost, and exits 3 when anything was — the run
//! completes on whatever loaded cleanly.
//!
//! `--threads N` sizes the worker pool for the discovery and repair hot
//! paths (default: the `KATARA_THREADS` environment variable, else the
//! machine's available parallelism). Results are byte-identical for every
//! thread count — `--threads` is purely a performance knob.
//!
//! `--metrics OUT.json` attaches a [`katara_obs::RunRecorder`] to the
//! pipeline and writes the run's [`katara_obs::RunMetrics`] — KB probe
//! counts, snapshot-tier hit rates, crowd spend, repair statistics — as
//! stable JSON. The `"deterministic"` section is byte-identical across
//! `--threads` values; wall times and the span tree live in the separate
//! `"nondeterministic"` section, which also times the input loads
//! (`kb.load`, `table.load`). `--trace` prints the per-phase span tree
//! (human-readable, quantized wall times) to stderr; the two flags
//! compose and neither perturbs the repairs.
//!
//! `--crowd-agg` picks how replicated crowd answers are aggregated:
//! `plurality` (the default — the paper's majority vote) or
//! `dawid-skene`, which infers a per-worker quality score by EM, stops
//! replicating early once the answer posterior is confident, and
//! escalates disagreements to fresh workers (see DESIGN.md §5k). Both
//! modes charge the same `--max-questions` budget.
//!
//! `clean --delta EDITS.csv` exercises the incremental engine: the base
//! table is cleaned once to warm a [`DeltaSession`], the edits are
//! applied (CSV with header `op,row,<columns…>`; `op` is `upsert` or
//! `delete`, and an upsert `row` equal to the current row count
//! appends), and the re-clean runs incrementally — byte-identical to a
//! full re-clean of the edited table at a fraction of the work.
//! `--out`, `--enriched-kb`, and the printed report then reflect the
//! edited table; `--metrics` additionally exports the `delta.*` work
//! counters alongside the bootstrap run's.
//!
//! `serve` runs the long-lived cleaning daemon from `katara-serve`: the
//! KB loads once and stays warm, tables arrive as CSV request bodies on
//! `POST /clean`, and SIGTERM drains in-flight requests before exit.
//! See DESIGN.md §5g for the endpoint and status-code contract.
//!
//! `serve --journal-dir DIR` makes the daemon *durable*: crowd-confirmed
//! enrichment is appended to a write-ahead journal and fsynced before
//! each response acknowledges it, and a restarted daemon replays the
//! journal back to the exact pre-crash store. `katara recover
//! --journal-dir DIR` inspects such a directory offline (it never
//! writes, so it is safe against a live daemon); `--verify` additionally
//! round-trips the recovered store through the serializer and fails if
//! recovery is not byte-stable; `--out KB.nt` exports the recovered KB.
//! See DESIGN.md §5h for the journal format and the crash matrix.
//!
//! The library part exists so the command logic is unit-testable; the
//! binary is a thin `main`.

#![warn(missing_docs)]

use std::collections::HashSet;
use std::io::BufRead;
use std::sync::Arc;

use katara_core::prelude::*;
use katara_crowd::{AggregationMode, Answer, Budget, Crowd, CrowdConfig, Oracle, Question};
use katara_kb::{ntriples, sim, Kb};
use katara_serve::{ServePolicy, Server, ServerConfig};
use katara_table::{csv, Table};

/// Ingestion mode selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestChoice {
    /// Abort on the first defect (`--strict`, the default).
    #[default]
    Strict,
    /// Quarantine defects and keep going (`--lenient`).
    Lenient,
}

impl IngestChoice {
    fn kb_policy(self) -> katara_kb::IngestPolicy {
        match self {
            IngestChoice::Strict => katara_kb::IngestPolicy::strict(),
            IngestChoice::Lenient => katara_kb::IngestPolicy::lenient(),
        }
    }

    fn table_policy(self) -> katara_table::IngestPolicy {
        match self {
            IngestChoice::Strict => katara_table::IngestPolicy::strict(),
            IngestChoice::Lenient => katara_table::IngestPolicy::lenient(),
        }
    }
}

/// CLI errors. Every variant maps to a clean non-zero exit in `main`;
/// nothing in the command path panics on user input.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// I/O problem.
    Io(std::io::Error),
    /// KB parse problem.
    Kb(ntriples::NtError),
    /// CSV parse problem.
    Csv(csv::CsvError),
    /// Pipeline problem.
    Katara(KataraError),
    /// Journal recovery/verification problem.
    Journal(katara_kb::JournalError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Kb(e) => write!(f, "kb error: {e}"),
            CliError::Csv(e) => write!(f, "csv error: {e}"),
            CliError::Katara(e) => write!(f, "{e}"),
            CliError::Journal(e) => write!(f, "journal error: {e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Usage(_) => None,
            CliError::Io(e) => Some(e),
            CliError::Kb(e) => Some(e),
            CliError::Csv(e) => Some(e),
            CliError::Katara(e) => Some(e),
            CliError::Journal(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<katara_crowd::CrowdError> for CliError {
    fn from(e: katara_crowd::CrowdError) -> Self {
        CliError::Katara(KataraError::from(e))
    }
}
impl From<ntriples::NtError> for CliError {
    fn from(e: ntriples::NtError) -> Self {
        CliError::Kb(e)
    }
}
impl From<csv::CsvError> for CliError {
    fn from(e: csv::CsvError) -> Self {
        CliError::Csv(e)
    }
}
impl From<KataraError> for CliError {
    fn from(e: KataraError) -> Self {
        CliError::Katara(e)
    }
}
impl From<katara_kb::JournalError> for CliError {
    fn from(e: katara_kb::JournalError) -> Self {
        CliError::Journal(e)
    }
}

/// How the crowd answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrowdMode {
    /// Ask on stdin.
    Interactive,
    /// Answer without asking, as `katara serve` does: `trust`, `skeptic`
    /// or `facts:FILE`.
    Policy(ServePolicy),
}

impl CrowdMode {
    /// Parse a `--crowd` argument.
    pub fn parse(arg: &str) -> Result<Self, CliError> {
        match arg {
            "interactive" => Ok(CrowdMode::Interactive),
            "trust" => Ok(CrowdMode::Policy(ServePolicy::Trust)),
            "skeptic" => Ok(CrowdMode::Policy(ServePolicy::Skeptic)),
            other => match other.strip_prefix("facts:") {
                Some(path) => {
                    let text = std::fs::read_to_string(path)?;
                    Ok(CrowdMode::Policy(ServePolicy::Facts(parse_facts(&text))))
                }
                None => Err(CliError::Usage(format!(
                    "unknown crowd mode {other:?} (interactive|trust|skeptic|facts:FILE)"
                ))),
            },
        }
    }
}

/// Parse a facts TSV into a normalized statement set.
pub fn parse_facts(text: &str) -> HashSet<(String, String, String)> {
    text.lines()
        .filter_map(|l| {
            let mut parts = l.split('\t');
            let s = parts.next()?.trim();
            let p = parts.next()?.trim();
            let o = parts.next()?.trim();
            if s.is_empty() || p.is_empty() || o.is_empty() {
                return None;
            }
            Some((
                sim::normalize(s),
                ntriples::local_name(p).to_string(),
                sim::normalize(ntriples::local_name(o)),
            ))
        })
        .collect()
}

/// The CLI oracle: stdin in interactive mode, otherwise the policy, which
/// accepts discovery's top-ranked candidate for every choice question.
pub struct CliOracle {
    mode: CrowdMode,
}

impl CliOracle {
    /// Build an oracle for a mode.
    pub fn new(mode: CrowdMode) -> Self {
        CliOracle { mode }
    }

    fn ask_stdin(&self, q: &Question) -> Answer {
        println!("\n{q}");
        let options = q.num_options();
        let is_fact = matches!(q, Question::Fact { .. });
        loop {
            if is_fact {
                print!("  [y/n] > ");
            } else {
                print!("  [1-{} or 0 for none of the above] > ", options - 1);
            }
            use std::io::Write;
            let _ = std::io::stdout().flush();
            let mut line = String::new();
            if std::io::stdin().lock().read_line(&mut line).is_err() {
                return Answer::NoneOfTheAbove;
            }
            let t = line.trim();
            if is_fact {
                match t {
                    "y" | "Y" | "yes" => return Answer::Bool(true),
                    "n" | "N" | "no" => return Answer::Bool(false),
                    _ => continue,
                }
            }
            match t.parse::<usize>() {
                Ok(0) => return Answer::NoneOfTheAbove,
                Ok(i) if i < options => return Answer::Choice(i - 1),
                _ => continue,
            }
        }
    }
}

impl Oracle for CliOracle {
    fn answer(&self, q: &Question) -> Answer {
        match &self.mode {
            CrowdMode::Interactive => self.ask_stdin(q),
            CrowdMode::Policy(policy) => policy.answer(q),
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
pub enum Command {
    /// Full pipeline.
    Clean {
        /// CSV path.
        table: String,
        /// N-Triples path.
        kb: String,
        /// Crowd mode.
        crowd: CrowdMode,
        /// Repairs per erroneous tuple.
        k: usize,
        /// Where to write the repaired CSV (top-1 repairs applied).
        out: Option<String>,
        /// Where to write the enriched KB.
        enriched_kb: Option<String>,
        /// Cap on crowd questions; `None` is unlimited. When the cap is
        /// hit mid-run the pipeline degrades gracefully instead of
        /// failing (exit code 3).
        max_questions: Option<usize>,
        /// Strict or lenient ingestion of the KB and table files.
        ingest: IngestChoice,
        /// Worker threads for the discovery/repair hot paths; `None`
        /// resolves `KATARA_THREADS` / available parallelism.
        threads: Option<usize>,
        /// Where to write run metrics JSON (`--metrics`); `None` skips
        /// instrumentation entirely (the no-op recorder).
        metrics: Option<String>,
        /// `true` prints the span tree to stderr (`--trace`).
        trace: bool,
        /// Edits CSV for an incremental re-clean (`--delta`); `None`
        /// runs the ordinary one-shot clean.
        delta: Option<String>,
        /// How replicated crowd answers are aggregated (`--crowd-agg`);
        /// plurality is the paper's majority vote, Dawid–Skene learns
        /// per-worker quality and adapts replication.
        crowd_agg: AggregationMode,
    },
    /// Discovery only.
    Discover {
        /// CSV path.
        table: String,
        /// N-Triples path.
        kb: String,
        /// Patterns to show.
        k: usize,
        /// Strict or lenient ingestion of the KB and table files.
        ingest: IngestChoice,
        /// Worker threads for candidate discovery; `None` resolves
        /// `KATARA_THREADS` / available parallelism.
        threads: Option<usize>,
    },
    /// KB statistics.
    KbStats {
        /// N-Triples path.
        kb: String,
        /// Strict or lenient ingestion of the KB file.
        ingest: IngestChoice,
    },
    /// Long-lived cleaning daemon (`katara serve`).
    Serve {
        /// N-Triples path, loaded once and kept warm.
        kb: String,
        /// Bind address (`HOST:PORT`; port 0 picks a free port).
        addr: String,
        /// Crowd mode for requests that don't override it. Interactive
        /// is rejected — a daemon has no stdin to ask.
        crowd: CrowdMode,
        /// Maximum concurrently executing `/clean` requests.
        max_in_flight: usize,
        /// Worker threads for the cleaning hot paths.
        threads: Option<usize>,
        /// Strict or lenient ingestion of the KB file.
        ingest: IngestChoice,
        /// Default per-request pipeline deadline in milliseconds,
        /// applied when a request carries no `deadline_ms`.
        default_deadline_ms: Option<u64>,
        /// Repairs per erroneous tuple.
        k: usize,
        /// Write-ahead journal directory (`--journal-dir`); `Some`
        /// makes the daemon durable: enrichment persists across
        /// restarts and crashes.
        journal_dir: Option<String>,
    },
    /// Offline journal recovery/inspection (`katara recover`).
    Recover {
        /// The journal directory to recover from.
        journal_dir: String,
        /// Also round-trip the recovered store through the serializer
        /// and fail unless recovery is byte-stable (`--verify`).
        verify: bool,
        /// Where to write the recovered KB as N-Triples.
        out: Option<String>,
    },
}

/// Parse `argv[1..]`.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let usage = || {
        CliError::Usage(
            "katara clean|discover|kb-stats|serve --table T.csv --kb KB.nt \
             [--crowd interactive|trust|skeptic|facts:FILE] [--k N] \
             [--out OUT.csv] [--enriched-kb OUT.nt] [--max-questions N] \
             [--strict|--lenient] [--threads N] \
             [--metrics OUT.json] [--trace] [--delta EDITS.csv] \
             [--crowd-agg plurality|dawid-skene] \
             [--addr HOST:PORT] [--max-in-flight N] [--default-deadline-ms N] \
             [--journal-dir DIR] [--verify]"
                .to_string(),
        )
    };
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?.clone();
    let mut table = None;
    let mut kb = None;
    let mut crowd = CrowdMode::Policy(ServePolicy::Skeptic);
    let mut k = 3usize;
    let mut out = None;
    let mut enriched_kb = None;
    let mut max_questions = None;
    let mut ingest = IngestChoice::default();
    let mut threads = None;
    let mut metrics = None;
    let mut trace = false;
    let mut addr = "127.0.0.1:8743".to_string();
    let mut max_in_flight = 4usize;
    let mut default_deadline_ms = None;
    let mut journal_dir = None;
    let mut verify = false;
    let mut delta = None;
    let mut crowd_agg = None;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--table" => table = Some(value()?),
            "--kb" => kb = Some(value()?),
            "--crowd" => crowd = CrowdMode::parse(&value()?)?,
            "--k" => {
                k = value()?
                    .parse()
                    .map_err(|_| CliError::Usage("--k needs a number".into()))?
            }
            "--out" => out = Some(value()?),
            "--enriched-kb" => enriched_kb = Some(value()?),
            "--max-questions" => {
                max_questions = Some(
                    value()?
                        .parse()
                        .map_err(|_| CliError::Usage("--max-questions needs a number".into()))?,
                )
            }
            "--strict" => ingest = IngestChoice::Strict,
            "--lenient" => ingest = IngestChoice::Lenient,
            "--threads" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| CliError::Usage("--threads needs a number".into()))?;
                if n == 0 {
                    return Err(CliError::Usage("--threads must be at least 1".into()));
                }
                threads = Some(n);
            }
            "--metrics" => metrics = Some(value()?),
            "--trace" => trace = true,
            "--addr" => addr = value()?,
            "--max-in-flight" => {
                max_in_flight = value()?
                    .parse()
                    .map_err(|_| CliError::Usage("--max-in-flight needs a number".into()))?
            }
            "--default-deadline-ms" => {
                default_deadline_ms =
                    Some(value()?.parse().map_err(|_| {
                        CliError::Usage("--default-deadline-ms needs a number".into())
                    })?)
            }
            "--journal-dir" => journal_dir = Some(value()?),
            "--verify" => verify = true,
            "--delta" => delta = Some(value()?),
            "--crowd-agg" => {
                crowd_agg = Some(
                    value()?
                        .parse::<AggregationMode>()
                        .map_err(CliError::Usage)?,
                )
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let need = |o: Option<String>, what: &str| {
        o.ok_or_else(|| CliError::Usage(format!("missing --{what}")))
    };
    if delta.is_some() && cmd != "clean" {
        return Err(CliError::Usage("--delta only applies to `clean`".into()));
    }
    if crowd_agg.is_some() && cmd != "clean" {
        return Err(CliError::Usage(
            "--crowd-agg only applies to `clean`".into(),
        ));
    }
    match cmd.as_str() {
        "clean" => Ok(Command::Clean {
            table: need(table, "table")?,
            kb: need(kb, "kb")?,
            crowd,
            k,
            out,
            enriched_kb,
            max_questions,
            ingest,
            threads,
            metrics,
            trace,
            delta,
            crowd_agg: crowd_agg.unwrap_or_default(),
        }),
        "discover" | "kb-stats" if metrics.is_some() || trace => Err(CliError::Usage(
            "--metrics/--trace only apply to `clean`".into(),
        )),
        "discover" => Ok(Command::Discover {
            table: need(table, "table")?,
            kb: need(kb, "kb")?,
            k,
            ingest,
            threads,
        }),
        "kb-stats" => Ok(Command::KbStats {
            kb: need(kb, "kb")?,
            ingest,
        }),
        "serve" => {
            if crowd == CrowdMode::Interactive {
                return Err(CliError::Usage(
                    "serve cannot use --crowd interactive (a daemon has no stdin); \
                     use trust, skeptic, or facts:FILE"
                        .into(),
                ));
            }
            if verify {
                return Err(CliError::Usage("--verify only applies to `recover`".into()));
            }
            Ok(Command::Serve {
                kb: need(kb, "kb")?,
                addr,
                crowd,
                max_in_flight,
                threads,
                ingest,
                default_deadline_ms,
                k,
                journal_dir,
            })
        }
        "recover" => Ok(Command::Recover {
            journal_dir: journal_dir
                .ok_or_else(|| CliError::Usage("recover needs --journal-dir DIR".into()))?,
            verify,
            out,
        }),
        _ => Err(usage()),
    }
}

fn load_kb(path: &str, ingest: IngestChoice) -> Result<(Kb, katara_kb::IngestReport), CliError> {
    let text = std::fs::read_to_string(path)?;
    let name = path.rsplit('/').next().unwrap_or(path);
    Ok(ntriples::parse_with_policy(
        name,
        &text,
        &ingest.kb_policy(),
    )?)
}

fn load_table(
    path: &str,
    ingest: IngestChoice,
) -> Result<(Table, katara_table::IngestReport), CliError> {
    let text = std::fs::read_to_string(path)?;
    let name = path.rsplit('/').next().unwrap_or(path);
    Ok(csv::parse_with_policy(name, &text, &ingest.table_policy())?)
}

/// Cap on per-line diagnostics echoed to stdout; the counts are exact.
const MAX_PRINTED: usize = 5;

fn print_kb_ingest(report: &katara_kb::IngestReport) {
    if report.quarantined_count > 0 {
        println!(
            "kb ingest: {} of {} statements quarantined",
            report.quarantined_count, report.total_statements
        );
        for q in report.quarantined.iter().take(MAX_PRINTED) {
            println!("  {q}");
        }
        if report.quarantined_count > MAX_PRINTED {
            println!("  ... and {} more", report.quarantined_count - MAX_PRINTED);
        }
    }
    for e in report.audit.broken_edges.iter().take(MAX_PRINTED) {
        println!("kb audit: {e}");
    }
    if report.audit.broken_edges.len() > MAX_PRINTED {
        println!(
            "kb audit: ... and {} more repaired edges",
            report.audit.broken_edges.len() - MAX_PRINTED
        );
    }
    if !report.dangling_refs.is_empty() {
        println!(
            "kb audit: {} dangling reference(s), e.g. {:?}",
            report.dangling_refs.len(),
            report.dangling_refs[0]
        );
    }
    if !report.audit.label_collisions.is_empty() {
        println!(
            "kb audit: {} label(s) shared by multiple resources",
            report.audit.label_collisions.len()
        );
    }
}

fn print_table_ingest(report: &katara_table::IngestReport) {
    if report.quarantined_count > 0 {
        println!(
            "table ingest: {} of {} records quarantined",
            report.quarantined_count, report.total_records
        );
        for q in report.quarantined.iter().take(MAX_PRINTED) {
            println!("  {q}");
        }
        if report.quarantined_count > MAX_PRINTED {
            println!("  ... and {} more", report.quarantined_count - MAX_PRINTED);
        }
    }
}

/// How a successful run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Everything completed at full fidelity.
    Clean,
    /// The pipeline completed but degraded (budget exhausted, crowd
    /// faults, unresolved tuples). `main` exits 3 so scripts can tell.
    Degraded,
}

/// Resolve an optional `--threads N` into a pool size: an explicit
/// value wins, otherwise fall back to `KATARA_THREADS` / available
/// parallelism via [`Threads::auto`].
fn resolve_threads(threads: Option<usize>) -> Threads {
    threads.map(Threads::fixed).unwrap_or_default()
}

/// Execute a command, writing human-readable output to stdout.
pub fn run(cmd: Command) -> Result<RunStatus, CliError> {
    match cmd {
        Command::KbStats { kb, ingest } => {
            let (kb, report) = load_kb(&kb, ingest)?;
            print_kb_ingest(&report);
            println!("KB `{}`:", kb.name());
            println!("  entities:   {}", kb.num_entities());
            println!("  classes:    {}", kb.num_classes());
            println!("  properties: {}", kb.num_properties());
            println!("  facts:      {}", kb.num_facts());
            if report.is_degraded() {
                Ok(RunStatus::Degraded)
            } else {
                Ok(RunStatus::Clean)
            }
        }
        Command::Discover {
            table,
            kb,
            k,
            ingest,
            threads,
        } => {
            let (kb, kb_report) = load_kb(&kb, ingest)?;
            let (table, table_report) = load_table(&table, ingest)?;
            print_kb_ingest(&kb_report);
            print_table_ingest(&table_report);
            let ingest_summary = IngestSummary {
                kb: Some(kb_report),
                table: Some(table_report),
            };
            let status = if ingest_summary.is_degraded() {
                RunStatus::Degraded
            } else {
                RunStatus::Clean
            };
            let candidate_config = CandidateConfig {
                threads: resolve_threads(threads),
                ..CandidateConfig::default()
            };
            let cands = discover_candidates(&table, &kb, &candidate_config);
            let patterns = discover_topk(&table, &kb, &cands, k, &DiscoveryConfig::default());
            if patterns.is_empty() {
                println!("no table pattern found — the KB does not cover this table");
                return Ok(status);
            }
            for (i, p) in patterns.iter().enumerate() {
                println!(
                    "#{} (score {:.3}): {}",
                    i + 1,
                    p.score(),
                    p.describe(&kb, table.columns())
                );
            }
            Ok(status)
        }
        Command::Clean {
            table,
            kb,
            crowd,
            k,
            out,
            enriched_kb,
            max_questions,
            ingest,
            threads,
            metrics,
            trace,
            delta,
            crowd_agg,
        } => {
            // Instrumentation is opt-in: without `--metrics`/`--trace`
            // the pipeline keeps its default no-op recorder. The recorder
            // exists before the loads, so their spans show where a large
            // KB's start-up time goes.
            let run_recorder = if metrics.is_some() || trace {
                Some(Arc::new(RunRecorder::new()))
            } else {
                None
            };
            let obs_recorder: Arc<dyn Recorder> = match &run_recorder {
                Some(r) => Arc::clone(r) as Arc<dyn Recorder>,
                None => Arc::new(NoopRecorder),
            };
            let (mut kb, kb_report) = {
                let _span = Span::enter(obs_recorder.as_ref(), "kb.load");
                load_kb(&kb, ingest)?
            };
            let (mut table, table_report) = {
                let _span = Span::enter(obs_recorder.as_ref(), "table.load");
                load_table(&table, ingest)?
            };
            print_kb_ingest(&kb_report);
            print_table_ingest(&table_report);
            let ingest_summary = IngestSummary {
                kb: Some(kb_report),
                table: Some(table_report),
            };
            let budget = match max_questions {
                Some(n) => Budget::questions(n),
                None => Budget::unlimited(),
            };
            let mut platform = Crowd::new(
                CrowdConfig {
                    // The CLI oracle is deterministic; replication is
                    // pointless noise here.
                    replication: 1,
                    worker_accuracy: 1.0,
                    budget,
                    aggregation: crowd_agg,
                    ..CrowdConfig::default()
                },
                CliOracle::new(crowd),
            )?;
            let pool = resolve_threads(threads);
            let config = KataraConfig {
                repairs_k: k,
                // The CLI oracle is deterministic (or a human): one
                // question per variable is exact; repetition would just
                // re-ask the same thing.
                validation: ValidationConfig {
                    questions_per_variable: 1,
                    ..ValidationConfig::default()
                },
                candidates: CandidateConfig {
                    threads: pool,
                    ..CandidateConfig::default()
                },
                threads: pool,
                recorder: obs_recorder,
                ..KataraConfig::default()
            };
            let katara = Katara::new(config);
            let mut report = match &delta {
                None => katara.clean(&table, &mut kb, &mut platform)?,
                Some(path) => {
                    let text = std::fs::read_to_string(path)?;
                    let edits = TableDelta::parse_csv(&text, table.num_columns())
                        .map_err(|e| CliError::Usage(format!("--delta {path}: {e}")))?;
                    let base_rows = table.num_rows();
                    // Full clean of the base table warms the session;
                    // the edits then re-clean incrementally.
                    let (mut session, _bootstrap) =
                        katara.delta_session(&table, &mut kb, &mut platform)?;
                    let report = session.clean_delta(&mut kb, &mut platform, &edits)?;
                    println!(
                        "delta: {} edit(s) applied, {} -> {} row(s)",
                        edits.len(),
                        base_rows,
                        session.table().num_rows()
                    );
                    table = session.table().clone();
                    report
                }
            };
            ingest_summary.apply_to(&mut report.degradation);
            if let Some(rec) = &run_recorder {
                ingest_summary.record(rec.as_ref());
                let mut m = rec.snapshot();
                m.threads = pool.get();
                if trace {
                    eprint!("{}", m.render_trace());
                }
                if let Some(path) = &metrics {
                    std::fs::write(path, m.to_json())?;
                    println!("run metrics written to {path}");
                }
            }

            println!(
                "validated pattern: {}",
                report.pattern.describe(&kb, table.columns())
            );
            let a = &report.annotation;
            use katara_core::annotation::TupleStatus;
            println!(
                "tuples: {} validated by KB, {} by KB+crowd, {} erroneous, {} unresolved",
                a.status_count(TupleStatus::ValidatedByKb),
                a.status_count(TupleStatus::ValidatedWithCrowd),
                a.status_count(TupleStatus::Erroneous),
                a.status_count(TupleStatus::Unresolved),
            );
            if !a.feedback_stripped.is_empty() {
                println!(
                    "pattern feedback stripped: {}",
                    a.feedback_stripped.join("; ")
                );
            }
            println!(
                "KB enrichment: {} facts, {} entities | crowd questions: {}",
                a.enriched_facts,
                a.enriched_entities,
                platform.stats().questions()
            );
            for (row, repairs) in &report.repairs {
                println!("row {row}:");
                for (i, r) in repairs.iter().enumerate() {
                    println!("  repair #{} (cost {}): {:?}", i + 1, r.cost, r.changes);
                }
                if let Some(best) = repairs.first() {
                    katara_core::repair::apply_repair(&mut table, *row, best);
                }
            }
            if let Some(path) = out {
                std::fs::write(&path, csv::to_string(&table))?;
                println!("repaired table written to {path}");
            }
            if let Some(path) = enriched_kb {
                std::fs::write(&path, ntriples::to_string(&kb))?;
                println!("enriched KB written to {path}");
            }
            let d = &report.degradation;
            if d.is_degraded() {
                println!("degraded run:");
                if d.ingest_quarantined > 0 {
                    println!(
                        "  {} input line(s)/record(s) quarantined during ingestion",
                        d.ingest_quarantined
                    );
                }
                if d.ingest_repaired_edges > 0 {
                    println!(
                        "  {} KB hierarchy edge(s) dropped to break cycles",
                        d.ingest_repaired_edges
                    );
                }
                if d.budget_exhausted {
                    println!("  crowd budget exhausted");
                }
                if d.pattern_partially_validated {
                    println!("  pattern only partially validated");
                }
                if d.no_quorum_variables > 0 {
                    println!("  {} variable(s) without quorum", d.no_quorum_variables);
                }
                if d.unresolved_tuples > 0 {
                    println!(
                        "  {} tuple(s) unresolved (no repairs proposed for them)",
                        d.unresolved_tuples
                    );
                }
                if d.questions_retried > 0 {
                    println!(
                        "  {} question(s) retried at escalated replication",
                        d.questions_retried
                    );
                }
                Ok(RunStatus::Degraded)
            } else {
                Ok(RunStatus::Clean)
            }
        }
        Command::Recover {
            journal_dir,
            verify,
            out,
        } => {
            let dir = std::path::Path::new(&journal_dir);
            let (kb, report) = if verify {
                katara_kb::journal::verify_dir(dir)?
            } else {
                katara_kb::journal::recover_dir(dir)?
            };
            println!(
                "recovered KB `{}`: {} entities, {} facts (version {})",
                kb.name(),
                kb.num_entities(),
                kb.num_facts(),
                kb.version(),
            );
            println!(
                "journal: checkpoint seq {}, {} record(s) replayed ({} op(s)), \
                 {} stale record(s) skipped, {} torn byte(s) ignored",
                report.checkpoint_seq,
                report.replayed_records,
                report.replayed_ops,
                report.skipped_stale,
                report.truncated_bytes,
            );
            if verify {
                println!("verify: recovered store round-trips byte-identically");
            }
            if let Some(path) = out {
                std::fs::write(&path, ntriples::to_string(&kb))?;
                println!("recovered KB written to {path}");
            }
            Ok(RunStatus::Clean)
        }
        Command::Serve {
            kb,
            addr,
            crowd,
            max_in_flight,
            threads,
            ingest,
            default_deadline_ms,
            k,
            journal_dir,
        } => {
            let (kb, kb_report) = load_kb(&kb, ingest)?;
            print_kb_ingest(&kb_report);
            let policy = match crowd {
                CrowdMode::Policy(policy) => policy,
                // parse_args rejects this; belt and braces for library
                // callers constructing a Command by hand.
                CrowdMode::Interactive => {
                    return Err(CliError::Usage(
                        "serve cannot use the interactive crowd".into(),
                    ))
                }
            };
            let config = ServerConfig {
                addr,
                max_in_flight,
                threads: resolve_threads(threads),
                default_deadline: default_deadline_ms.map(std::time::Duration::from_millis),
                repairs_k: k,
                ..ServerConfig::default()
            };
            let server = match journal_dir {
                Some(dir) => {
                    let (server, replay) =
                        Server::bind_durable(config, kb, policy, std::path::Path::new(&dir))?;
                    println!(
                        "journal `{dir}`: {} record(s) replayed, {} torn byte(s) ignored",
                        replay.replayed_records, replay.truncated_bytes,
                    );
                    server
                }
                None => Server::bind(config, kb, policy)?,
            };
            katara_serve::trap_termination_signals();
            println!("katara-serve listening on {}", server.local_addr()?);
            {
                use std::io::Write;
                let _ = std::io::stdout().flush();
            }
            server.run()?;
            println!("katara-serve drained and exited");
            Ok(RunStatus::Clean)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_clean() {
        let args: Vec<String> = [
            "clean",
            "--table",
            "t.csv",
            "--kb",
            "k.nt",
            "--crowd",
            "trust",
            "--k",
            "5",
            "--max-questions",
            "40",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_args(&args).unwrap() {
            Command::Clean {
                table,
                kb,
                crowd,
                k,
                max_questions,
                ..
            } => {
                assert_eq!(table, "t.csv");
                assert_eq!(kb, "k.nt");
                assert_eq!(crowd, CrowdMode::Policy(ServePolicy::Trust));
                assert_eq!(k, 5);
                assert_eq!(max_questions, Some(40));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_args_threads() {
        let args: Vec<String> = [
            "discover",
            "--table",
            "t.csv",
            "--kb",
            "k.nt",
            "--threads",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_args(&args).unwrap() {
            Command::Discover { threads, .. } => assert_eq!(threads, Some(4)),
            other => panic!("{other:?}"),
        }
        // Omitted: falls through to the auto default.
        let args: Vec<String> = ["discover", "--table", "t.csv", "--kb", "k.nt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_args(&args).unwrap() {
            Command::Discover { threads, .. } => assert_eq!(threads, None),
            other => panic!("{other:?}"),
        }
        // Zero workers is a usage error, not a silent clamp.
        let args: Vec<String> = [
            "clean",
            "--table",
            "t.csv",
            "--kb",
            "k.nt",
            "--crowd",
            "trust",
            "--threads",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_args_metrics_and_trace() {
        let args: Vec<String> = [
            "clean",
            "--table",
            "t.csv",
            "--kb",
            "k.nt",
            "--metrics",
            "m.json",
            "--trace",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_args(&args).unwrap() {
            Command::Clean { metrics, trace, .. } => {
                assert_eq!(metrics.as_deref(), Some("m.json"));
                assert!(trace);
            }
            other => panic!("{other:?}"),
        }
        // Off by default.
        let args: Vec<String> = ["clean", "--table", "t.csv", "--kb", "k.nt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_args(&args).unwrap() {
            Command::Clean { metrics, trace, .. } => {
                assert_eq!(metrics, None);
                assert!(!trace);
            }
            other => panic!("{other:?}"),
        }
        // Only `clean` is instrumented; other subcommands reject the
        // flags instead of silently ignoring them.
        let args: Vec<String> = ["discover", "--table", "t.csv", "--kb", "k.nt", "--trace"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_args_delta() {
        let args: Vec<String> = [
            "clean",
            "--table",
            "t.csv",
            "--kb",
            "k.nt",
            "--delta",
            "edits.csv",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_args(&args).unwrap() {
            Command::Clean { delta, .. } => assert_eq!(delta.as_deref(), Some("edits.csv")),
            other => panic!("{other:?}"),
        }
        // One-shot by default.
        let args: Vec<String> = ["clean", "--table", "t.csv", "--kb", "k.nt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_args(&args).unwrap() {
            Command::Clean { delta, .. } => assert_eq!(delta, None),
            other => panic!("{other:?}"),
        }
        // Only `clean` takes edits.
        let args: Vec<String> = [
            "discover",
            "--table",
            "t.csv",
            "--kb",
            "k.nt",
            "--delta",
            "edits.csv",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_args_crowd_agg() {
        let args: Vec<String> = [
            "clean",
            "--table",
            "t.csv",
            "--kb",
            "k.nt",
            "--crowd-agg",
            "dawid-skene",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_args(&args).unwrap() {
            Command::Clean { crowd_agg, .. } => {
                assert_eq!(crowd_agg, AggregationMode::DawidSkene)
            }
            other => panic!("{other:?}"),
        }
        // Plurality by default.
        let args: Vec<String> = ["clean", "--table", "t.csv", "--kb", "k.nt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_args(&args).unwrap() {
            Command::Clean { crowd_agg, .. } => {
                assert_eq!(crowd_agg, AggregationMode::Plurality)
            }
            other => panic!("{other:?}"),
        }
        // Unknown modes are usage errors.
        let args: Vec<String> = [
            "clean",
            "--table",
            "t.csv",
            "--kb",
            "k.nt",
            "--crowd-agg",
            "median",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
        // Only `clean` aggregates crowd answers.
        let args: Vec<String> = [
            "discover",
            "--table",
            "t.csv",
            "--kb",
            "k.nt",
            "--crowd-agg",
            "plurality",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_args_serve() {
        let args: Vec<String> = [
            "serve",
            "--kb",
            "k.nt",
            "--addr",
            "127.0.0.1:9000",
            "--max-in-flight",
            "2",
            "--default-deadline-ms",
            "750",
            "--crowd",
            "trust",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_args(&args).unwrap() {
            Command::Serve {
                kb,
                addr,
                crowd,
                max_in_flight,
                default_deadline_ms,
                ..
            } => {
                assert_eq!(kb, "k.nt");
                assert_eq!(addr, "127.0.0.1:9000");
                assert_eq!(crowd, CrowdMode::Policy(ServePolicy::Trust));
                assert_eq!(max_in_flight, 2);
                assert_eq!(default_deadline_ms, Some(750));
            }
            other => panic!("{other:?}"),
        }
        // A daemon cannot ask questions on stdin.
        let args: Vec<String> = ["serve", "--kb", "k.nt", "--crowd", "interactive"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
        // The KB is still mandatory.
        let args: Vec<String> = ["serve"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_args_serve_journal_dir() {
        let args: Vec<String> = ["serve", "--kb", "k.nt", "--journal-dir", "wal/"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_args(&args).unwrap() {
            Command::Serve { journal_dir, .. } => {
                assert_eq!(journal_dir.as_deref(), Some("wal/"));
            }
            other => panic!("{other:?}"),
        }
        // Non-durable by default.
        let args: Vec<String> = ["serve", "--kb", "k.nt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_args(&args).unwrap() {
            Command::Serve { journal_dir, .. } => assert_eq!(journal_dir, None),
            other => panic!("{other:?}"),
        }
        // `--verify` belongs to `recover` alone.
        let args: Vec<String> = ["serve", "--kb", "k.nt", "--verify"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_args_recover() {
        let args: Vec<String> = [
            "recover",
            "--journal-dir",
            "wal/",
            "--verify",
            "--out",
            "recovered.nt",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_args(&args).unwrap() {
            Command::Recover {
                journal_dir,
                verify,
                out,
            } => {
                assert_eq!(journal_dir, "wal/");
                assert!(verify);
                assert_eq!(out.as_deref(), Some("recovered.nt"));
            }
            other => panic!("{other:?}"),
        }
        // The journal dir is mandatory.
        let args: Vec<String> = ["recover"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_args_rejects_unknown() {
        let args: Vec<String> = ["clean", "--bogus"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
        let args: Vec<String> = ["clean"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(parse_args(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn facts_file_oracle() {
        let facts = parse_facts("S. Africa\thasCapital\tPretoria\n# junk\nshort\tline\n");
        let oracle = CliOracle::new(CrowdMode::Policy(ServePolicy::Facts(facts)));
        let yes = Question::Fact {
            subject: "s. africa".into(),
            property: "hasCapital".into(),
            object: "PRETORIA".into(),
        };
        assert_eq!(oracle.answer(&yes), Answer::Bool(true));
        let no = Question::Fact {
            subject: "Italy".into(),
            property: "hasCapital".into(),
            object: "Madrid".into(),
        };
        assert_eq!(oracle.answer(&no), Answer::Bool(false));
    }

    #[test]
    fn trust_and_skeptic_modes() {
        let q = Question::Fact {
            subject: "a".into(),
            property: "p".into(),
            object: "b".into(),
        };
        assert_eq!(
            CliOracle::new(CrowdMode::Policy(ServePolicy::Trust)).answer(&q),
            Answer::Bool(true)
        );
        assert_eq!(
            CliOracle::new(CrowdMode::Policy(ServePolicy::Skeptic)).answer(&q),
            Answer::Bool(false)
        );
        // Choice questions accept discovery's ranking.
        let cq = Question::ColumnType {
            table: "t".into(),
            column: 0,
            header: vec![],
            sample_rows: vec![],
            candidates: vec!["a".into(), "b".into()],
        };
        assert_eq!(
            CliOracle::new(CrowdMode::Policy(ServePolicy::Skeptic)).answer(&cq),
            Answer::Choice(0)
        );
    }
}
