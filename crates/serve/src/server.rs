//! The daemon: a long-lived HTTP service over the KATARA pipeline.
//!
//! One [`Server`] owns one loaded KB and serves:
//!
//! * `POST /clean` — body is a CSV table; returns cleaning results as
//!   JSON. Query parameters: `crowd=trust|skeptic` (policy override),
//!   `deadline_ms=N` (per-request pipeline deadline),
//!   `max_questions=N` (crowd budget), `snapshot=cold` (bypass the warm
//!   snapshot cache, for benchmarking).
//! * `POST /delta` — the incremental engine (DESIGN.md §5j). Without a
//!   `base` parameter the CSV body bootstraps a warm
//!   [`DeltaSession`]; the response carries the `"session"` key the
//!   daemon assigned to it. With
//!   `base=<key>` the body is an edits CSV (`op,row,<columns…>`)
//!   replayed incrementally against that session — byte-identical to a
//!   full re-clean of the edited table at a fraction of the work.
//!   A session holds its table, snapshot and caches but no KB: every
//!   replay runs on the request's own clone of the base, like `/clean`.
//!   When journaled enrichment from `/clean` requests has moved the base
//!   past the session's snapshot, the replay rebuilds the snapshot from
//!   the clone. `404` unknown session.
//! * `GET /healthz` — liveness and in-flight count.
//! * `GET /metrics` — the server-wide [`RunMetrics`] as JSON.
//!
//! Status mapping (DESIGN.md §5g): `200` complete, `206` degraded with
//! the degradation report in the body, `408` deadline expired before any
//! partial result existed, `429` shed by admission control
//! (`Retry-After`), `400` quarantined malformed input, `422` KB does not
//! cover the table, `503` draining after shutdown.
//!
//! The pipeline's `TableResolution` snapshots are kept warm across
//! requests, keyed by the request body and the KB version; the base KB
//! is cloned per request so enrichment never leaks between tenants. A
//! clone shares the base's finalized arenas and copies only the base's
//! enrichment overlays (DESIGN.md §5i), so it costs what durable mode
//! folded in since the last checkpoint, not the KB's size.
//! Admission is a bounded in-flight counter — excess requests shed
//! immediately instead of queueing behind a dying pipeline. Shutdown (via
//! [`ServerHandle::shutdown`] or SIGTERM after
//! [`trap_termination_signals`]) stops admitting, answers `503` while
//! draining, and returns from [`Server::run`] once the last in-flight
//! request finishes.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

use katara_core::prelude::*;
use katara_crowd::{Answer, Budget, Crowd, CrowdConfig, Oracle, Question};
use katara_kb::{ntriples, sim, Journal, JournalConfig, JournalStats, Kb, ReplayReport};
use katara_obs::{Counter, Gauge, Recorder, RunRecorder};
use katara_table::csv;

use crate::error::ServeError;
use crate::http::{self, ParseLimits, Request};

/// How a non-interactive crowd (the daemon's, or the CLI's outside
/// interactive mode) answers fact questions. Choice questions (pattern
/// validation) always accept discovery's top-ranked candidate — there is
/// no human at the other end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServePolicy {
    /// Missing KB facts are presumed true (trust the table).
    Trust,
    /// Missing KB facts are presumed false (trust the KB).
    Skeptic,
    /// Answer from a set of known-true `(subject, property, object)`
    /// statements (normalized); anything else is false.
    Facts(HashSet<(String, String, String)>),
}

impl Oracle for ServePolicy {
    fn answer(&self, q: &Question) -> Answer {
        match (self, q) {
            (_, Question::ColumnType { .. } | Question::Relationship { .. }) => Answer::Choice(0),
            (ServePolicy::Trust, Question::Fact { .. }) => Answer::Bool(true),
            (ServePolicy::Skeptic, Question::Fact { .. }) => Answer::Bool(false),
            (
                ServePolicy::Facts(facts),
                Question::Fact {
                    subject,
                    property,
                    object,
                },
            ) => {
                // Properties in questions may carry IRI/CURIE prefixes
                // (`y:hasCapital`); the statements use bare names.
                let key = (
                    sim::normalize(subject),
                    ntriples::local_name(property).to_string(),
                    sim::normalize(ntriples::local_name(object)),
                );
                Answer::Bool(facts.contains(&key))
            }
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Maximum concurrently executing `/clean` requests; everything
    /// beyond sheds with `429`.
    pub max_in_flight: usize,
    /// Per-read socket timeout — one slow `read` never blocks a handler
    /// longer than this.
    pub read_timeout: Duration,
    /// Wall-clock cutoff for receiving one complete request (the
    /// slowloris backstop: a client trickling a byte per read stays
    /// under the read timeout but not under this).
    pub request_wall: Duration,
    /// Pipeline deadline applied when the request carries no
    /// `deadline_ms`; `None` means no deadline.
    pub default_deadline: Option<Duration>,
    /// Request parser caps.
    pub limits: ParseLimits,
    /// Worker pool for the cleaning hot paths, shared (as a size) by
    /// all concurrent cleans.
    pub threads: Threads,
    /// Possible repairs per erroneous tuple.
    pub repairs_k: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_in_flight: 4,
            read_timeout: Duration::from_millis(2_000),
            request_wall: Duration::from_secs(10),
            default_deadline: None,
            limits: ParseLimits::default(),
            threads: Threads::auto(),
            repairs_k: 3,
        }
    }
}

/// Cap on warm `TableResolution` snapshots kept alive; the least recently
/// used one is dropped when full (the next request for it rebuilds). Each
/// entry's key holds its request body, at most `max_body_bytes` (4 MiB by
/// default).
const SNAPSHOT_CACHE_CAP: usize = 64;

/// Cap on warm [`DeltaSession`]s, LRU-evicted like the snapshots. The
/// evicted client gets `404` on its next replay and re-bootstraps;
/// evictions are counted under `serve.sessions_evicted`.
const SESSION_CACHE_CAP: usize = 16;

/// One warm incremental session (`POST /delta`): the engine state (table,
/// snapshot and caches) and the crowd policy fixed at bootstrap. It holds
/// no KB of its own.
struct DeltaEntry {
    session: DeltaSession,
    policy: ServePolicy,
}

/// The LRU cache behind both warm caches (snapshots and delta sessions):
/// entries carry a last-use tick from a monotonic counter; `get`
/// refreshes it, and `insert` at capacity evicts the entry with the
/// oldest tick (an O(cap) scan — the caps are small and the lock is
/// already held). Ticks are unique, so the victim is deterministic
/// regardless of `HashMap` iteration order.
struct LruCache<K, V> {
    map: HashMap<K, (u64, V)>,
    tick: u64,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    fn new(cap: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            tick: 0,
            cap,
        }
    }

    /// Fetch an entry and mark it most recently used.
    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            slot.1.clone()
        })
    }

    /// Insert (or replace) an entry; at capacity the least-recently-used
    /// entry is evicted first. Returns the evicted key, if any.
    fn insert(&mut self, key: K, entry: V) -> Option<K> {
        self.tick += 1;
        let mut evicted = None;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
                evicted = Some(lru);
            }
        }
        self.map.insert(key, (self.tick, entry));
        evicted
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }
}

/// A warm snapshot's key: the request body it was built from and the KB
/// version.
type SnapshotKey = (Vec<u8>, u64);

/// A fresh `/delta` session key: a counter hashed with SipHash under
/// random keys `std` draws once per process. Every key is unpredictable,
/// so a client's own key says nothing about its neighbours', and one
/// from before a restart is vanishingly unlikely to name a new client's
/// session.
fn new_session_key() -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    static TAKEN: AtomicU64 = AtomicU64::new(0);
    KEYS.get_or_init(RandomState::new)
        .hash_one(TAKEN.fetch_add(1, Ordering::Relaxed))
}

/// Durable-mode state: the journal plus the cumulative [`JournalStats`]
/// already published to the recorder (the journal reports running
/// totals; the daemon publishes the diffs).
struct JournalState {
    journal: Journal,
    published: JournalStats,
}

/// Shared server state: everything a connection handler needs.
struct ServerState {
    config: ServerConfig,
    /// The base KB. Read-locked to clone per request; write-locked only
    /// to fold journaled enrichment back in (durable mode), which bumps
    /// [`Kb::version`] and thereby invalidates warm snapshots.
    kb: RwLock<Kb>,
    policy: ServePolicy,
    recorder: Arc<RunRecorder>,
    /// `/clean` requests currently executing (admission control).
    in_flight: AtomicUsize,
    /// Live connection-handler threads (drain barrier).
    conns: AtomicUsize,
    shutdown: AtomicBool,
    /// Warm snapshots, keyed by the request body they were built from
    /// and the KB version; LRU-evicted at capacity.
    snapshots: Mutex<LruCache<SnapshotKey, Arc<TableResolution>>>,
    /// Warm incremental sessions (`POST /delta`), keyed by the session
    /// key assigned at bootstrap; LRU-evicted at capacity.
    sessions: Mutex<LruCache<u64, Arc<Mutex<DeltaEntry>>>>,
    /// `Some` when serving durably (`--journal-dir`): enrichment is
    /// journaled before the response acknowledges it. The mutex also
    /// serializes append-then-apply, so the journal's record order is
    /// the order deltas hit the shared KB.
    journal: Option<Mutex<JournalState>>,
}

impl ServerState {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || termination_signalled()
    }

    /// The server-wide metrics, with the queue-depth gauge set from the
    /// in-flight count as it stands now.
    fn metrics(&self) -> RunMetrics {
        let depth = self.in_flight.load(Ordering::SeqCst) as u64;
        self.recorder.set_gauge(Gauge::ServeQueueDepth, depth);
        self.recorder.snapshot()
    }

    /// True when the durable journal can no longer accept appends.
    fn journal_broken(&self) -> bool {
        match &self.journal {
            Some(j) => j
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .journal
                .is_broken(),
            None => false,
        }
    }
}

/// A handle for controlling and observing a running [`Server`] from
/// another thread.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Begin graceful shutdown: stop admitting, drain in-flight work,
    /// make [`Server::run`] return.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// Currently executing `/clean` requests.
    pub fn in_flight(&self) -> usize {
        self.state.in_flight.load(Ordering::SeqCst)
    }

    /// The server-wide metrics snapshot (`GET /metrics` serves its
    /// [`RunMetrics::to_json`]).
    pub fn metrics(&self) -> RunMetrics {
        self.state.metrics()
    }
}

/// The daemon. Construct with [`Server::bind`], drive with
/// [`Server::run`].
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listener and assemble the shared state. The KB loads
    /// once here and stays warm for the life of the daemon. Enrichment
    /// stays per-request (in-memory clones); use [`Server::bind_durable`]
    /// to persist it instead.
    pub fn bind(config: ServerConfig, kb: Kb, policy: ServePolicy) -> std::io::Result<Server> {
        Server::bind_inner(config, kb, policy, None)
    }

    /// Bind a *durable* daemon: open (or create) the write-ahead journal
    /// in `journal_dir`, replay whatever a previous process left there
    /// into `kb`, compact, and serve with enrichment journaled before
    /// each response acknowledges it. Returns the boot [`ReplayReport`]
    /// so callers can log what recovery did.
    pub fn bind_durable(
        config: ServerConfig,
        mut kb: Kb,
        policy: ServePolicy,
        journal_dir: &Path,
    ) -> std::io::Result<(Server, ReplayReport)> {
        let (journal, replay) = Journal::open(journal_dir, &mut kb, JournalConfig::default())
            .map_err(|e| std::io::Error::other(format!("journal: {e}")))?;
        let server = Server::bind_inner(config, kb, policy, Some(journal))?;
        if let Some(j) = &server.state.journal {
            let mut js = j.lock().unwrap_or_else(|e| e.into_inner());
            publish_journal_stats(server.state.recorder.as_ref(), &mut js);
        }
        Ok((server, replay))
    }

    fn bind_inner(
        config: ServerConfig,
        kb: Kb,
        policy: ServePolicy,
        journal: Option<Journal>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                config,
                kb: RwLock::new(kb),
                policy,
                recorder: Arc::new(RunRecorder::new()),
                in_flight: AtomicUsize::new(0),
                conns: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                snapshots: Mutex::new(LruCache::new(SNAPSHOT_CACHE_CAP)),
                sessions: Mutex::new(LruCache::new(SESSION_CACHE_CAP)),
                journal: journal.map(|journal| {
                    Mutex::new(JournalState {
                        journal,
                        published: JournalStats::default(),
                    })
                }),
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Accept loop. Returns cleanly after [`ServerHandle::shutdown`] (or
    /// a trapped SIGTERM) once every in-flight connection has drained.
    pub fn run(&self) -> std::io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // While draining, connections are still handled (the
                    // handler answers 503 after reading the request —
                    // closing with unread bytes would RST the client),
                    // but they are short-lived and counted, so the drain
                    // barrier below still converges.
                    let state = Arc::clone(&self.state);
                    state.conns.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        handle_connection(&state, stream);
                        state.conns.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.state.draining() && self.state.conns.load(Ordering::SeqCst) == 0 {
                        return Ok(());
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Decrements the in-flight counter even if a handler panics —
/// admission slots must never leak.
struct InFlightSlot<'a> {
    state: &'a ServerState,
}

impl<'a> InFlightSlot<'a> {
    fn acquire(state: &'a ServerState) -> Result<Self, ()> {
        let now = state.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        if now > state.config.max_in_flight {
            drop(InFlightSlot { state });
            return Err(());
        }
        Ok(InFlightSlot { state })
    }
}

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.state.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn write_out(
    mut stream: &TcpStream,
    status: u16,
    body: &[u8],
    extra: &[(&str, &str)],
) -> std::io::Result<()> {
    stream.write_all(&http::response_bytes(
        status,
        "application/json",
        body,
        extra,
    ))
}

/// One connection, one request, one response, close.
fn handle_connection(state: &ServerState, stream: TcpStream) {
    let rec = state.recorder.as_ref();
    rec.incr(Counter::ServeRequests);
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_write_timeout(Some(state.config.read_timeout));
    let mut limits = state.config.limits.clone();
    limits.max_wall = Some(state.config.request_wall);
    let req = {
        let mut reader = &stream;
        match http::read_request(&mut reader, &limits) {
            Ok(req) => req,
            Err(e) => {
                match e {
                    ServeError::Timeout => rec.incr(Counter::ServeTimeouts),
                    _ => rec.incr(Counter::ServeQuarantined),
                }
                // Disconnected peers usually can't hear the answer, but
                // writing is harmless — errors are ignored.
                let body = error_body("request rejected", &e.to_string());
                let _ = write_out(&stream, e.status(), body.as_bytes(), &[]);
                return;
            }
        }
    };
    if state.draining() {
        // Refuse new work while draining; the old work still finishes,
        // new work goes elsewhere.
        let body = error_body("shutting down", "the server is draining");
        let _ = write_out(&stream, 503, body.as_bytes(), &[]);
        return;
    }
    let (status, body, extra) = route(state, &req);
    let extra_refs: Vec<(&str, &str)> = extra
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    let _ = write_out(&stream, status, body.as_bytes(), &extra_refs);
}

/// Dispatch one parsed request. Pure with respect to the socket, so the
/// unit tests drive it directly.
fn route(state: &ServerState, req: &Request) -> (u16, String, Vec<(String, String)>) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            // Durability state rides along in durable mode: a broken
            // journal demotes the daemon to "degraded" so orchestration
            // notices durability loss without a failing request.
            let journal_json = state.journal.as_ref().map(|j| {
                let js = j.lock().unwrap_or_else(|e| e.into_inner());
                format!(
                    ",\"journal\":{{\"last_seq\":{},\"checkpoint_seq\":{},\"lag\":{},\"broken\":{}}}",
                    js.journal.last_seq(),
                    js.journal.checkpoint_seq(),
                    js.journal.lag(),
                    js.journal.is_broken(),
                )
            });
            let status = if state.draining() {
                "draining"
            } else if state.journal_broken() {
                "degraded"
            } else {
                "ok"
            };
            let body = format!(
                "{{\"status\":\"{status}\",\"in_flight\":{}{}}}",
                state.in_flight.load(Ordering::SeqCst),
                journal_json.unwrap_or_default(),
            );
            (200, body, Vec::new())
        }
        ("GET", "/metrics") => (200, state.metrics().to_json(), Vec::new()),
        ("POST", "/clean") => admit(state, req, handle_clean),
        ("POST", "/delta") => admit(state, req, handle_delta),
        (_, "/healthz" | "/metrics" | "/clean" | "/delta") => (
            405,
            error_body(
                "method not allowed",
                &format!("{} {}", req.method, req.path),
            ),
            Vec::new(),
        ),
        _ => (404, error_body("not found", &req.path.clone()), Vec::new()),
    }
}

/// Admission control for the cleaning endpoints: run `handler` on the
/// UTF-8 body inside an in-flight slot, or shed with `429` when every
/// slot is taken.
fn admit(
    state: &ServerState,
    req: &Request,
    handler: fn(&ServerState, &Request, &str) -> (u16, String),
) -> (u16, String, Vec<(String, String)>) {
    let Ok(_slot) = InFlightSlot::acquire(state) else {
        state.recorder.incr(Counter::ServeShed);
        return (
            429,
            error_body("shed", "too many requests in flight"),
            vec![("Retry-After".to_string(), "1".to_string())],
        );
    };
    let (status, body) = match std::str::from_utf8(&req.body) {
        Ok(text) => handler(state, req, text),
        Err(_) => quarantine(state, "body is not UTF-8"),
    };
    (status, body, Vec::new())
}

/// Count a quarantined request and answer `400`.
fn quarantine(state: &ServerState, detail: &str) -> (u16, String) {
    state.recorder.incr(Counter::ServeQuarantined);
    (400, error_body("quarantined", detail))
}

/// A table request's CSV body and `crowd=` policy. The body must hold at
/// least one usable record after lenient ingestion; anything else is
/// quarantined.
fn parse_table_request(
    state: &ServerState,
    req: &Request,
    text: &str,
) -> Result<(katara_table::Table, IngestSummary, ServePolicy), (u16, String)> {
    let (table, report) =
        csv::parse_with_policy("request", text, &katara_table::IngestPolicy::lenient())
            .map_err(|e| quarantine(state, &e.to_string()))?;
    if table.num_rows() == 0 || table.num_columns() == 0 {
        return Err(quarantine(state, "no usable CSV records in body"));
    }
    let policy = match req.query_param("crowd") {
        None => state.policy.clone(),
        Some("trust") => ServePolicy::Trust,
        Some("skeptic") => ServePolicy::Skeptic,
        Some(other) => {
            return Err(quarantine(
                state,
                &format!("unknown crowd policy {other:?}"),
            ))
        }
    };
    let ingest = IngestSummary {
        kb: None,
        table: Some(report),
    };
    Ok((table, ingest, policy))
}

/// The daemon's crowd for one request: one deterministic answer per
/// question from `policy`, within `budget`.
fn serve_crowd(policy: ServePolicy, budget: Budget) -> Result<Crowd<ServePolicy>, (u16, String)> {
    Crowd::new(
        CrowdConfig {
            replication: 1,
            worker_accuracy: 1.0,
            budget,
            ..CrowdConfig::default()
        },
        policy,
    )
    .map_err(|e| (500, error_body("internal", &format!("crowd setup: {e}"))))
}

/// The pipeline configuration every request runs under; `/delta`
/// sessions pass enrichment off and no deadline.
fn pipeline_config(state: &ServerState, deadline: Deadline, enrich_kb: bool) -> KataraConfig {
    KataraConfig {
        repairs_k: state.config.repairs_k,
        threads: state.config.threads,
        candidates: CandidateConfig {
            threads: state.config.threads,
            ..CandidateConfig::default()
        },
        validation: ValidationConfig {
            questions_per_variable: 1,
            ..ValidationConfig::default()
        },
        annotation: AnnotationConfig { enrich_kb },
        recorder: state.recorder.clone() as Arc<dyn Recorder>,
        deadline,
        ..KataraConfig::default()
    }
}

/// Answer a clean's outcome: `200` complete or `206` degraded, with
/// `body` rendering the report; `400` a bad delta, `408` a deadline that
/// expired before any partial result, `422` an uncovered table
/// (`uncovered` says how), `500` anything else.
fn respond(
    state: &ServerState,
    result: Result<CleaningReport, KataraError>,
    uncovered: &str,
    body: impl FnOnce(&CleaningReport) -> String,
) -> (u16, String) {
    let rec = state.recorder.as_ref();
    match result {
        Ok(report) => {
            let degraded = report.degradation.is_degraded();
            if degraded {
                rec.incr(Counter::ServeDegraded);
            }
            if report.degradation.deadline_expired {
                rec.incr(Counter::ServeTimeouts);
            }
            (if degraded { 206 } else { 200 }, body(&report))
        }
        Err(KataraError::DeadlineExceeded { phase }) => {
            rec.incr(Counter::ServeTimeouts);
            (
                408,
                format!(
                    "{{\"error\":\"deadline\",\"detail\":\"expired before the {} phase\"}}",
                    json_escape(phase)
                ),
            )
        }
        Err(e @ KataraError::BadDelta { .. }) => quarantine(state, &e.to_string()),
        Err(KataraError::NoPatternFound { .. }) => (422, error_body("no pattern", uncovered)),
        Err(e) => (500, error_body("internal", &e.to_string())),
    }
}

/// The `/clean` endpoint: CSV body in, cleaning report out.
fn handle_clean(state: &ServerState, req: &Request, text: &str) -> (u16, String) {
    let (table, ingest, policy) = match parse_table_request(state, req, text) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    // Per-request knobs.
    let deadline = match req.query_param("deadline_ms") {
        Some(ms) => match ms.parse::<u64>() {
            Ok(ms) => Deadline::after(Duration::from_millis(ms)),
            Err(_) => return quarantine(state, "deadline_ms must be an integer"),
        },
        None => match state.config.default_deadline {
            Some(d) => Deadline::after(d),
            None => Deadline::none(),
        },
    };
    let budget = match req.query_param("max_questions") {
        Some(n) => match n.parse::<usize>() {
            Ok(n) => Budget::questions(n),
            Err(_) => return quarantine(state, "max_questions must be an integer"),
        },
        None => Budget::unlimited(),
    };
    let config = pipeline_config(state, deadline, true);

    // Per-request KB clone: enrichment must never leak across requests
    // (and the warm snapshots stay valid against the base they were
    // built from). The clone shares the finalized KB; this request's
    // writes land in its own overlays. In durable mode the base advances
    // when journaled enrichment folds back in — the version in the cache
    // key below is what keeps snapshots honest across that.
    let (mut kb, base_version) = clone_base_kb(state);

    // Warm snapshot cache, keyed by (body, KB version). `cold` bypasses
    // the cache (the bench measures exactly this difference). Every
    // snapshot records into the server recorder, so `GET /metrics`
    // reports the `resolve.*` tiers of cached and cold runs alike.
    let rec = state.recorder.as_ref();
    let build = || {
        Arc::new(
            TableResolution::build(&table, &kb, config.candidates.max_rows)
                .with_recorder(state.recorder.clone()),
        )
    };
    let resolution: Arc<TableResolution> = if req.query_param("snapshot") == Some("cold") {
        rec.incr(Counter::ServeSnapshotMiss);
        build()
    } else {
        let key = (req.body.clone(), base_version);
        let cached = {
            let mut cache = state.snapshots.lock().unwrap_or_else(|e| e.into_inner());
            cache.get(&key)
        };
        match cached {
            Some(res) => {
                rec.incr(Counter::ServeSnapshotHit);
                res
            }
            None => {
                rec.incr(Counter::ServeSnapshotMiss);
                let res = build();
                let mut cache = state.snapshots.lock().unwrap_or_else(|e| e.into_inner());
                cache.insert(key, Arc::clone(&res));
                res
            }
        }
    };

    let mut crowd = match serve_crowd(policy, budget) {
        Ok(crowd) => crowd,
        Err(response) => return response,
    };
    let result = Katara::new(config)
        .clean_with_resolution(&table, &mut kb, &mut crowd, Some(&resolution))
        .map(|mut report| {
            ingest.apply_to(&mut report.degradation);
            persist_enrichment(state, &mut report);
            report
        });
    respond(
        state,
        result,
        "the KB does not cover this table",
        |report| report_body(report, &kb, &table),
    )
}

/// The `/delta` endpoint (DESIGN.md §5j). Without `base` the CSV body
/// bootstraps a warm [`DeltaSession`]; with `base=<key>` the body is an
/// edits CSV replayed incrementally against that session.
fn handle_delta(state: &ServerState, req: &Request, text: &str) -> (u16, String) {
    match req.query_param("base") {
        None => bootstrap_delta_session(state, req, text),
        Some(key) => match u64::from_str_radix(key, 16) {
            Ok(key) => replay_delta(state, key, text),
            Err(_) => quarantine(state, "base must be a hex session key"),
        },
    }
}

/// Bootstrap path: full clean of the CSV body, keeping the session warm
/// for incremental replays. The response is the `/clean` report with a
/// `"session"` key prepended.
///
/// Sessions run with KB enrichment disabled, so their snapshot moves only
/// with the base. The crowd policy is fixed here; `base=` requests reuse
/// it and ignore per-request overrides, and so is the configuration:
/// `deadline_ms` and `max_questions` do not apply.
fn bootstrap_delta_session(state: &ServerState, req: &Request, text: &str) -> (u16, String) {
    let (table, ingest, policy) = match parse_table_request(state, req, text) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let (mut kb, _) = clone_base_kb(state);
    let mut crowd = match serve_crowd(policy.clone(), Budget::unlimited()) {
        Ok(crowd) => crowd,
        Err(response) => return response,
    };
    let config = pipeline_config(state, Deadline::none(), false);
    let mut session = None;
    let result = Katara::new(config)
        .delta_session(&table, &mut kb, &mut crowd)
        .map(|(warm, mut report)| {
            session = Some(warm);
            ingest.apply_to(&mut report.degradation);
            report
        });
    respond(
        state,
        result,
        "the KB does not cover this table",
        |report| {
            let body = report_body(report, &kb, &table);
            let mut key = new_session_key();
            if let Some(session) = session {
                let entry = Arc::new(Mutex::new(DeltaEntry { session, policy }));
                let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
                // Two counters can hash alike; draw again rather than
                // hand out a resident session.
                while sessions.contains(&key) {
                    key = new_session_key();
                }
                if sessions.insert(key, entry).is_some() {
                    state.recorder.incr(Counter::ServeSessionsEvicted);
                }
            }
            with_session_key(key, &body)
        },
    )
}

/// Replay path: parse the edits CSV, clone the base, run the incremental
/// clean on the clone. A snapshot the base has moved past since the
/// session's last run is rebuilt from the clone (`clean_delta` resyncs
/// it), so the report is the one a fresh bootstrap of the edited table
/// against the current base gets.
fn replay_delta(state: &ServerState, key: u64, text: &str) -> (u16, String) {
    let entry = {
        let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
        sessions.get(&key)
    };
    let Some(entry) = entry else {
        return (
            404,
            error_body("unknown session", "bootstrap again without `base`"),
        );
    };
    let mut guard = entry.lock().unwrap_or_else(|e| e.into_inner());
    let edits = match TableDelta::parse_csv(text, guard.session.table().num_columns()) {
        Ok(edits) => edits,
        Err(e) => return quarantine(state, &e.to_string()),
    };
    let (mut kb, _) = clone_base_kb(state);
    let DeltaEntry { session, policy } = &mut *guard;
    let mut crowd = match serve_crowd(policy.clone(), Budget::unlimited()) {
        Ok(crowd) => crowd,
        Err(response) => return response,
    };
    let result = session.clean_delta(&mut kb, &mut crowd, &edits);
    respond(
        state,
        result,
        "the KB no longer covers this table",
        |report| with_session_key(key, &report_body(report, &kb, session.table())),
    )
}

/// Splice the session key into a `report_body` JSON object.
fn with_session_key(key: u64, body: &str) -> String {
    format!("{{\"session\":\"{key:016x}\",{}", &body[1..])
}

/// Clone the base KB together with the version the clone is at.
///
/// In durable mode the *journal* mutex is taken first: `persist_enrichment`
/// holds it across append-then-apply, so without it a handler could
/// observe the window where a record is journaled but not yet folded
/// into the shared store — a clone at version N that the journal already
/// superseded. Holding the journal mutex for the read makes the
/// `(clone, version)` pair journal-prefix-consistent: the clone reflects
/// exactly the appends numbered up to its version, which is also what
/// keeps the warm-snapshot cache honest.
fn clone_base_kb(state: &ServerState) -> (Kb, u64) {
    let _journal_guard = state
        .journal
        .as_ref()
        .map(|j| j.lock().unwrap_or_else(|e| e.into_inner()));
    let base = state.kb.read().unwrap_or_else(|e| e.into_inner());
    (base.clone(), base.version())
}

/// Durable mode: journal this run's enrichment, then fold it into the
/// shared KB so later requests see it (persist-before-ack — the record
/// is fsynced before the response leaves).
///
/// The journal mutex is held across append *and* apply, so deltas hit
/// the shared store in sequence order: recovery replays the same op
/// sequence onto the same base and lands on a byte-identical store.
///
/// Failure is degradation, never a crash: if the journal cannot take
/// the record, the enrichment is dropped (this run's report is still
/// complete), `enrichment_dropped` marks the response 206, and the
/// `serve.enrichment_dropped` counter fires.
fn persist_enrichment(state: &ServerState, report: &mut CleaningReport) {
    let Some(journal) = &state.journal else {
        return;
    };
    let delta = report.enrichment().clone();
    if delta.is_empty() {
        return;
    }
    let rec = state.recorder.as_ref();
    let mut js = journal.lock().unwrap_or_else(|e| e.into_inner());
    match js.journal.append(&delta) {
        Ok(_seq) => {
            let mut shared = state.kb.write().unwrap_or_else(|e| e.into_inner());
            // Apply to a scratch clone and swap: an op that fails to
            // resolve must not leave the shared store half-mutated. The
            // clone copies only the overlays, not the finalized KB.
            let mut next = shared.clone();
            match next.apply_delta(&delta) {
                Ok(_changed) => {
                    *shared = next;
                    // Past the compaction threshold? Checkpoint under
                    // both locks. A failed compaction is not data loss
                    // (the journal still holds every record); it
                    // surfaces through healthz as lag / broken.
                    let _ = js.journal.maybe_compact(&mut shared);
                }
                Err(_) => {
                    // Journaled but inapplicable (schema drift between
                    // clone and apply — not reachable through the
                    // pipeline's own deltas). Count it dropped.
                    report.degradation.enrichment_dropped += delta.len();
                    rec.incr_by(Counter::ServeEnrichmentDropped, delta.len() as u64);
                }
            }
        }
        Err(_) => {
            report.degradation.enrichment_dropped += delta.len();
            rec.incr_by(Counter::ServeEnrichmentDropped, delta.len() as u64);
        }
    }
    publish_journal_stats(rec, &mut js);
}

/// Publish the diff between the journal's cumulative stats and what the
/// recorder has already seen, then advance the baseline.
fn publish_journal_stats(rec: &dyn Recorder, js: &mut JournalState) {
    let now = js.journal.stats();
    let prev = js.published;
    rec.incr_by(
        Counter::JournalAppends,
        now.appends.saturating_sub(prev.appends),
    );
    rec.incr_by(
        Counter::JournalFsyncs,
        now.fsyncs.saturating_sub(prev.fsyncs),
    );
    rec.incr_by(
        Counter::JournalRetries,
        now.retries.saturating_sub(prev.retries),
    );
    rec.incr_by(
        Counter::JournalCheckpoints,
        now.checkpoints.saturating_sub(prev.checkpoints),
    );
    rec.incr_by(
        Counter::JournalReplayedRecords,
        now.replayed_records.saturating_sub(prev.replayed_records),
    );
    rec.set_gauge(Gauge::JournalLag, js.journal.lag());
    js.published = now;
}

/// The success/degraded response body.
fn report_body(report: &CleaningReport, kb: &Kb, table: &katara_table::Table) -> String {
    use katara_core::annotation::TupleStatus;
    let a = &report.annotation;
    let d = &report.degradation;
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"status\":\"{}\",",
        if d.is_degraded() { "degraded" } else { "ok" }
    ));
    out.push_str(&format!(
        "\"pattern\":\"{}\",",
        json_escape(&report.pattern.describe(kb, table.columns()))
    ));
    out.push_str(&format!(
        "\"tuples\":{{\"validated_by_kb\":{},\"validated_with_crowd\":{},\"erroneous\":{},\"unresolved\":{}}},",
        a.status_count(TupleStatus::ValidatedByKb),
        a.status_count(TupleStatus::ValidatedWithCrowd),
        a.status_count(TupleStatus::Erroneous),
        a.status_count(TupleStatus::Unresolved),
    ));
    out.push_str("\"repairs\":[");
    let mut first = true;
    for (row, repairs) in &report.repairs {
        let Some(best) = repairs.first() else {
            continue;
        };
        if !first {
            out.push(',');
        }
        first = false;
        let changes: Vec<String> = best
            .changes
            .iter()
            .map(|(col, val)| format!("[{},\"{}\"]", col, json_escape(val)))
            .collect();
        out.push_str(&format!(
            "{{\"row\":{},\"cost\":{},\"changes\":[{}]}}",
            row,
            best.cost,
            changes.join(",")
        ));
    }
    out.push_str("],");
    out.push_str(&format!(
        "\"degradation\":{{\"deadline_expired\":{},\"deadline_phase\":{},\"deadline_denied\":{},\
         \"budget_exhausted\":{},\"unresolved_tuples\":{},\"questions_asked\":{},\
         \"ingest_quarantined\":{},\"enrichment_dropped\":{}}}",
        d.deadline_expired,
        match d.deadline_phase {
            Some(p) => format!("\"{}\"", json_escape(p)),
            None => "null".to_string(),
        },
        d.deadline_denied,
        d.budget_exhausted,
        d.unresolved_tuples,
        d.questions_asked,
        d.ingest_quarantined,
        d.enrichment_dropped,
    ));
    out.push('}');
    out
}

fn error_body(kind: &str, detail: &str) -> String {
    format!(
        "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
        json_escape(kind),
        json_escape(detail)
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---- Termination signals ----------------------------------------------

static SIGNALLED: AtomicBool = AtomicBool::new(false);
static NOTE: AtomicU64 = AtomicU64::new(0);

#[cfg(unix)]
mod sig {
    use super::{Ordering, NOTE, SIGNALLED};

    /// `sighandler_t` without libc: a plain C function pointer.
    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> isize;
    }

    extern "C" fn note_signal(signum: i32) {
        // Async-signal-safe: two atomic stores, nothing else.
        NOTE.store(signum as u64, Ordering::SeqCst);
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        // SIGTERM=15 (systemd stop), SIGINT=2 (^C): both mean drain.
        unsafe {
            signal(15, note_signal);
            signal(2, note_signal);
        }
    }
}

/// Install SIGTERM/SIGINT handlers that flip a process-global flag every
/// running [`Server`] polls: the signal starts a graceful drain instead
/// of killing in-flight requests. No-op on non-Unix platforms.
pub fn trap_termination_signals() {
    #[cfg(unix)]
    sig::install();
}

/// True once a trapped termination signal has arrived.
pub fn termination_signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// The signal number that triggered the drain (0 if none yet).
pub fn termination_signal() -> u64 {
    NOTE.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soccer_kb() -> Kb {
        let mut b = katara_kb::KbBuilder::new().with_name("mini-yago");
        let person = b.class("person");
        let country = b.class("country");
        let capital = b.class("capital");
        let nationality = b.property("nationality");
        let has_capital = b.property("hasCapital");
        for (p, c, cap) in [
            ("Rossi", "Italy", "Rome"),
            ("Klate", "S. Africa", "Pretoria"),
            ("Pirlo", "Italy", "Rome"),
            ("Ramos", "Spain", "Madrid"),
        ] {
            let rp = b.entity(p, &[person]);
            let rc = b.entity(c, &[country]);
            let rcap = b.entity(cap, &[capital]);
            b.fact(rp, nationality, rc);
            b.fact(rc, has_capital, rcap);
        }
        b.finalize()
    }

    const SOCCER_CSV: &str = "name,country,capital\n\
                              Rossi,Italy,Rome\n\
                              Pirlo,Italy,Madrid\n\
                              Ramos,Spain,Madrid\n";

    fn state() -> Arc<ServerState> {
        state_with_journal(None)
    }

    fn state_with_journal(journal: Option<Journal>) -> Arc<ServerState> {
        Arc::new(ServerState {
            config: ServerConfig {
                threads: Threads::fixed(1),
                ..ServerConfig::default()
            },
            kb: RwLock::new(soccer_kb()),
            policy: ServePolicy::Trust,
            recorder: Arc::new(RunRecorder::new()),
            in_flight: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            snapshots: Mutex::new(LruCache::new(SNAPSHOT_CACHE_CAP)),
            sessions: Mutex::new(LruCache::new(SESSION_CACHE_CAP)),
            journal: journal.map(|journal| {
                Mutex::new(JournalState {
                    journal,
                    published: JournalStats::default(),
                })
            }),
        })
    }

    /// A unique scratch dir for one test's journal.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "katara-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A durable state over a fresh journal dir; the KB inside has been
    /// canonicalized by the boot checkpoint, exactly like
    /// [`Server::bind_durable`] would leave it.
    fn durable_state(tag: &str) -> (Arc<ServerState>, std::path::PathBuf) {
        let dir = scratch_dir(tag);
        let mut kb = soccer_kb();
        let (journal, _replay) =
            Journal::open(&dir, &mut kb, katara_kb::JournalConfig::default()).unwrap();
        let st = state_with_journal(Some(journal));
        *st.kb.write().unwrap() = kb;
        (st, dir)
    }

    fn post_clean(body: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "POST".to_string(),
            path: "/clean".to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn clean_round_trip_maps_statuses() {
        let st = state();
        // Healthy trust-mode clean: 200, everything validated.
        let (status, body, _) = route(&st, &post_clean(SOCCER_CSV, &[]));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"ok\""));

        // Skeptic mode flags the Pirlo row and proposes the KB's repair.
        let (status, body, _) = route(&st, &post_clean(SOCCER_CSV, &[("crowd", "skeptic")]));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"row\":1"), "{body}");
        assert!(body.contains("Rome"), "{body}");

        // Zero deadline: expired before resolve — 408.
        let (status, body, _) = route(&st, &post_clean(SOCCER_CSV, &[("deadline_ms", "0")]));
        assert_eq!(status, 408, "{body}");
        assert!(body.contains("deadline"));

        // Starved budget: completes degraded — 206 with the report.
        let (status, body, _) = route(
            &st,
            &post_clean(SOCCER_CSV, &[("crowd", "skeptic"), ("max_questions", "0")]),
        );
        assert_eq!(status, 206, "{body}");
        assert!(body.contains("\"status\":\"degraded\""));
        assert!(body.contains("\"budget_exhausted\":true"), "{body}");

        // Garbage body: quarantined — 400.
        let (status, body, _) = route(&st, &post_clean("", &[]));
        assert_eq!(status, 400, "{body}");

        // A table the KB cannot cover: 422.
        let (status, body, _) = route(&st, &post_clean("a,b\nxq1,zv9\n", &[]));
        assert_eq!(status, 422, "{body}");
    }

    #[test]
    fn warm_snapshot_cache_hits_on_repeat_bodies() {
        let st = state();
        let req = post_clean(SOCCER_CSV, &[]);
        route(&st, &req);
        route(&st, &req);
        route(&st, &req);
        let hits = st.recorder.counter_total(Counter::ServeSnapshotHit);
        let misses = st.recorder.counter_total(Counter::ServeSnapshotMiss);
        assert_eq!(misses, 1, "first request builds the snapshot");
        assert_eq!(hits, 2, "repeat bodies reuse it");
        // `snapshot=cold` bypasses the cache.
        route(&st, &post_clean(SOCCER_CSV, &[("snapshot", "cold")]));
        assert_eq!(st.recorder.counter_total(Counter::ServeSnapshotMiss), 2);
    }

    #[test]
    fn snapshot_cache_evicts_least_recently_used() {
        let st = state();
        let body = |i: usize| format!("{SOCCER_CSV}Extra{i},Italy,Rome\n");
        let hits = || st.recorder.counter_total(Counter::ServeSnapshotHit);
        for i in 0..SNAPSHOT_CACHE_CAP {
            route(&st, &post_clean(&body(i), &[]));
        }
        assert_eq!(hits(), 0, "distinct bodies all miss");
        // Re-posting the first body makes it the most recently used, so
        // the overflowing body evicts the second one, not the first.
        route(&st, &post_clean(&body(0), &[]));
        route(&st, &post_clean(&body(SNAPSHOT_CACHE_CAP), &[]));
        route(&st, &post_clean(&body(0), &[]));
        assert_eq!(hits(), 2, "the refreshed first body survived the overflow");
        route(&st, &post_clean(&body(1), &[]));
        assert_eq!(hits(), 2, "the coldest body was evicted");
    }

    #[test]
    fn admission_control_sheds_beyond_the_cap() {
        let st = state();
        // Fill every slot by hand, then route: the request sheds.
        st.in_flight
            .store(st.config.max_in_flight, Ordering::SeqCst);
        let (status, body, extra) = route(&st, &post_clean(SOCCER_CSV, &[]));
        assert_eq!(status, 429, "{body}");
        assert!(extra.iter().any(|(n, v)| n == "Retry-After" && v == "1"));
        assert_eq!(st.recorder.counter_total(Counter::ServeShed), 1);
        // The shed request released its slot.
        assert_eq!(st.in_flight.load(Ordering::SeqCst), st.config.max_in_flight);
        st.in_flight.store(0, Ordering::SeqCst);
        let (status, _, _) = route(&st, &post_clean(SOCCER_CSV, &[]));
        assert_eq!(status, 200);
        assert_eq!(st.in_flight.load(Ordering::SeqCst), 0, "slot released");
    }

    #[test]
    fn unknown_routes_and_methods() {
        let st = state();
        let mut req = post_clean("", &[]);
        req.path = "/nope".into();
        assert_eq!(route(&st, &req).0, 404);
        let mut req = post_clean("", &[]);
        req.method = "GET".into();
        assert_eq!(route(&st, &req).0, 405);
        let req = Request {
            method: "GET".into(),
            path: "/healthz".into(),
            query: vec![],
            headers: vec![],
            body: vec![],
        };
        let (status, body, _) = route(&st, &req);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
    }

    /// A counter's or gauge's value in a `GET /metrics` body.
    fn metrics_counter(body: &str, name: &str) -> u64 {
        body.split(&format!("\"{name}\": "))
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{name} is not exported: {body}"))
    }

    #[test]
    fn metrics_endpoint_serves_the_run_metrics_schema() {
        let st = state();
        route(&st, &post_clean(SOCCER_CSV, &[]));
        let req = Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: vec![],
            headers: vec![],
            body: vec![],
        };
        let (status, body, _) = route(&st, &req);
        assert_eq!(status, 200);
        assert!(body.contains("\"schema\": \"katara-run-metrics/v1\""));
        assert!(body.contains("\"serve.queue_depth\": 0"), "gauge drained");
        // The clean's snapshot records into the server recorder.
        let lookups = metrics_counter(&body, "resolve.candidates_lookups");
        assert!(lookups > 0, "one clean must record snapshot lookups");
        // The gauge reads the in-flight count as it stands at the read.
        st.in_flight.store(3, Ordering::SeqCst);
        let (_, body, _) = route(&st, &req);
        assert_eq!(metrics_counter(&body, "serve.queue_depth"), 3);
        st.in_flight.store(0, Ordering::SeqCst);
    }

    /// Trust answers every fact question yes, so no row of the soccer
    /// body is erroneous and no repair index is built; Skeptic flags the
    /// Pirlo row and builds one.
    #[test]
    fn only_a_clean_with_an_erroneous_row_builds_the_repair_index() {
        let st = state();
        let metrics = Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: vec![],
            headers: vec![],
            body: vec![],
        };
        let graphs = || metrics_counter(&route(&st, &metrics).1, "repair.graphs_built");
        let (status, body, _) = route(&st, &post_clean(SOCCER_CSV, &[("crowd", "trust")]));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"erroneous\":0"), "{body}");
        assert_eq!(graphs(), 0, "nothing to repair: no index");
        let (status, body, _) = route(&st, &post_clean(SOCCER_CSV, &[("crowd", "skeptic")]));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"row\":1"), "{body}");
        assert!(graphs() > 0, "the Pirlo row builds the index");
    }

    /// However many distinct bodies and bootstraps arrive, the warm
    /// caches hold at most their caps.
    #[test]
    fn warm_caches_stay_within_their_caps() {
        let st = state();
        let csv = |i: usize| format!("{SOCCER_CSV}Extra{i},Italy,Rome\n");
        let lens = || {
            (
                st.snapshots.lock().unwrap().len(),
                st.sessions.lock().unwrap().len(),
            )
        };
        for i in 0..SNAPSHOT_CACHE_CAP + 8 {
            let (status, body, _) = route(&st, &post_clean(&csv(i), &[]));
            assert_eq!(status, 200, "{body}");
            assert!(lens().0 <= SNAPSHOT_CACHE_CAP, "{} snapshots", lens().0);
        }
        assert_eq!(lens().0, SNAPSHOT_CACHE_CAP);
        for i in 0..SESSION_CACHE_CAP + 4 {
            let (status, body, _) = route(&st, &post_delta(&csv(i), &[]));
            assert_eq!(status, 200, "{body}");
            assert!(lens().1 <= SESSION_CACHE_CAP, "{} sessions", lens().1);
        }
        assert_eq!(lens().1, SESSION_CACHE_CAP);
        assert_eq!(st.recorder.snapshot().counter("serve.sessions_evicted"), 4);
    }

    #[test]
    fn json_escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn durable_mode_journals_enrichment_and_recovery_matches_live() {
        let (st, dir) = durable_state("happy");
        let base_version = st.kb.read().unwrap().version();

        // Trust mode confirms the bad Pirlo row's facts with the crowd
        // and enriches the KB with them — durably.
        let (status, body, _) = route(&st, &post_clean(SOCCER_CSV, &[]));
        assert_eq!(status, 200, "{body}");
        {
            let js = st.journal.as_ref().unwrap().lock().unwrap();
            assert!(js.journal.last_seq() >= 1, "enrichment was journaled");
        }
        let live_version = st.kb.read().unwrap().version();
        assert!(
            live_version > base_version,
            "journaled enrichment folds into the shared KB"
        );
        assert!(st.recorder.counter_total(Counter::JournalAppends) >= 1);
        assert!(st.recorder.counter_total(Counter::JournalFsyncs) >= 1);

        // The version bump invalidates the warm snapshot for the same
        // body: the second request must rebuild, not reuse.
        let misses_before = st.recorder.counter_total(Counter::ServeSnapshotMiss);
        let (status, _, _) = route(&st, &post_clean(SOCCER_CSV, &[]));
        assert_eq!(status, 200);
        assert_eq!(
            st.recorder.counter_total(Counter::ServeSnapshotMiss),
            misses_before + 1,
            "enrichment-bumped version must never serve the stale snapshot"
        );

        // What a crashed-and-restarted process would recover is exactly
        // the live store.
        let (recovered, _report) = katara_kb::journal::recover_dir(&dir).unwrap();
        let live = st.kb.read().unwrap();
        assert_eq!(
            katara_kb::ntriples::to_string(&recovered),
            katara_kb::ntriples::to_string(&live),
            "recovery is byte-identical to the served store"
        );
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_journal_degrades_to_206_not_loss() {
        let (st, dir) = durable_state("faulted");
        {
            let mut js = st.journal.as_ref().unwrap().lock().unwrap();
            js.journal
                .set_fault_plan(katara_kb::WriteFaultPlan {
                    write_error_rate: 1.0,
                    seed: 42,
                    ..katara_kb::WriteFaultPlan::default()
                })
                .unwrap();
        }
        let base_version = st.kb.read().unwrap().version();
        let (status, body, _) = route(&st, &post_clean(SOCCER_CSV, &[]));
        assert_eq!(status, 206, "{body}");
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(
            !body.contains("\"enrichment_dropped\":0"),
            "dropped count must be visible: {body}"
        );
        assert!(st.recorder.counter_total(Counter::ServeEnrichmentDropped) >= 1);
        assert!(st.recorder.counter_total(Counter::JournalRetries) >= 1);
        assert_eq!(
            st.kb.read().unwrap().version(),
            base_version,
            "unjournaled enrichment must not reach the shared KB"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn post_delta(body: &str, query: &[(&str, &str)]) -> Request {
        let mut req = post_clean(body, query);
        req.path = "/delta".to_string();
        req
    }

    /// Pull the `"session":"<hex>"` key out of a `/delta` response body.
    fn session_key_of(body: &str) -> String {
        let tail = body
            .split("\"session\":\"")
            .nth(1)
            .unwrap_or_else(|| panic!("no session key in {body}"));
        tail[..tail.find('"').unwrap()].to_string()
    }

    #[test]
    fn delta_bootstrap_and_incremental_replay_round_trip() {
        let st = state();
        // Skeptic bootstrap: flags the Pirlo row like /clean would, and
        // hands back a session key.
        let (status, body, _) = route(&st, &post_delta(SOCCER_CSV, &[("crowd", "skeptic")]));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"row\":1"), "{body}");
        let key = session_key_of(&body);

        // Replay an edits CSV: fix the bad row, append a new one. The
        // report covers the edited table incrementally.
        let edits = "op,row,name,country,capital\n\
                     upsert,1,Pirlo,Italy,Rome\n\
                     upsert,3,Klate,S. Africa,Rome\n";
        let (status, body, _) = route(&st, &post_delta(edits, &[("base", &key)]));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&format!("\"session\":\"{key}\"")), "{body}");
        // The appended Klate row is the (only) erroneous one now, and the
        // KB knows its capital.
        assert!(body.contains("\"row\":3"), "{body}");
        assert!(body.contains("Pretoria"), "{body}");
        // The incremental path did delta work, not a fresh discovery.
        let m = st.recorder.snapshot();
        assert!(m.counter("delta.tuples_touched") >= 2, "{body}");

        // Malformed edits: wrong arity is quarantined, session intact.
        let (status, body, _) = route(
            &st,
            &post_delta("op,row,name\nupsert,0,x\n", &[("base", &key)]),
        );
        assert_eq!(status, 400, "{body}");
        let (status, _, _) = route(
            &st,
            &post_delta("op,row,name,country,capital\n", &[("base", &key)]),
        );
        assert_eq!(status, 200, "an empty delta still round-trips");
    }

    /// Two clients bootstrapping the same table each get a session of
    /// their own: the second must not take over the first one's.
    #[test]
    fn same_table_bootstraps_get_sessions_of_their_own() {
        let st = state();
        let skeptic = [("crowd", "skeptic")];
        let (status, body, _) = route(&st, &post_delta(SOCCER_CSV, &skeptic));
        assert_eq!(status, 200, "{body}");
        let a = session_key_of(&body);
        let fix = "op,row,name,country,capital\nupsert,1,Pirlo,Italy,Rome\n";
        let (status, body, _) = route(&st, &post_delta(fix, &[("base", &a)]));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"erroneous\":0"), "{body}");

        let (status, body, _) = route(&st, &post_delta(SOCCER_CSV, &skeptic));
        assert_eq!(status, 200, "{body}");
        let b = session_key_of(&body);
        assert_ne!(a, b);

        // A's next replay still reports the table A edited, and B's
        // session starts from the table B sent.
        let empty = "op,row,name,country,capital\n";
        let (status, body, _) = route(&st, &post_delta(empty, &[("base", &a)]));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"erroneous\":0"), "{body}");
        let (status, body, _) = route(&st, &post_delta(empty, &[("base", &b)]));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"row\":1"), "{body}");

        // Neither key leads to the other: stepping one's own key by one
        // names no session.
        for key in [&a, &b] {
            let key = u64::from_str_radix(key, 16).unwrap();
            for near in [key.wrapping_sub(1), key.wrapping_add(1)] {
                let base = format!("{near:016x}");
                let (status, body, _) = route(&st, &post_delta(empty, &[("base", &base)]));
                assert_eq!(status, 404, "{base} next to {key:016x}: {body}");
            }
        }
    }

    #[test]
    fn delta_rejects_unknown_sessions_and_bad_keys() {
        let st = state();
        let (status, body, _) = route(
            &st,
            &post_delta("op,row,a\n", &[("base", "00000000deadbeef")]),
        );
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("unknown session"), "{body}");
        let (status, body, _) = route(&st, &post_delta("op,row,a\n", &[("base", "not-hex")]));
        assert_eq!(status, 400, "{body}");
        // Wrong method on the route.
        let mut req = post_delta("", &[]);
        req.method = "GET".into();
        assert_eq!(route(&st, &req).0, 405);
    }

    #[test]
    fn session_cache_evicts_least_recently_used() {
        let mut cache = LruCache::<u64, u32>::new(SESSION_CACHE_CAP);
        for key in 0..SESSION_CACHE_CAP as u64 {
            assert_eq!(cache.insert(key, key as u32), None, "cache not yet full");
        }
        assert_eq!(cache.len(), SESSION_CACHE_CAP);
        // Touching key 0 makes it the most recently used, so the next
        // insert evicts key 1 — the coldest — not key 0.
        assert_eq!(cache.get(&0), Some(0));
        assert_eq!(cache.insert(100, 100), Some(1));
        assert!(cache.contains(&0));
        assert!(!cache.contains(&1));
        assert_eq!(cache.len(), SESSION_CACHE_CAP);
        // Further inserts keep walking the recency order.
        assert_eq!(cache.insert(101, 101), Some(2));
        assert_eq!(cache.insert(102, 102), Some(3));
        // Replacing a resident key refreshes it without evicting.
        assert_eq!(cache.insert(100, 200), None);
        assert_eq!(cache.get(&100), Some(200));
        // A miss advances nothing visible and evicts nothing.
        assert_eq!(cache.get(&999), None);
        assert_eq!(cache.len(), SESSION_CACHE_CAP);
    }

    #[test]
    fn delta_session_eviction_is_lru_and_counted() {
        let st = state();
        // Fill the cache, remembering the first session's key.
        let (status, body, _) = route(&st, &post_delta(SOCCER_CSV, &[("crowd", "skeptic")]));
        assert_eq!(status, 200, "{body}");
        let first = session_key_of(&body);
        for i in 1..SESSION_CACHE_CAP {
            let csv = format!("{SOCCER_CSV}Extra{i},Italy,Rome\n");
            let (status, body, _) = route(&st, &post_delta(&csv, &[("crowd", "skeptic")]));
            assert_eq!(status, 200, "{body}");
        }
        assert_eq!(st.recorder.snapshot().counter("serve.sessions_evicted"), 0);
        // Keep the first session warm, then overflow the cache: the
        // eviction hits some colder session, not the freshly-used first.
        let edits = "op,row,name,country,capital\nupsert,1,Pirlo,Italy,Rome\n";
        let (status, body, _) = route(&st, &post_delta(edits, &[("base", &first)]));
        assert_eq!(status, 200, "{body}");
        let csv = format!("{SOCCER_CSV}Overflow,Spain,Madrid\n");
        let (status, body, _) = route(&st, &post_delta(&csv, &[("crowd", "skeptic")]));
        assert_eq!(status, 200, "{body}");
        assert_eq!(st.recorder.snapshot().counter("serve.sessions_evicted"), 1);
        assert!(
            st.sessions
                .lock()
                .unwrap()
                .contains(&u64::from_str_radix(&first, 16).unwrap()),
            "the recently-replayed session survived the eviction"
        );
    }

    /// A `/delta` response body without its `"session"` key.
    fn without_session(body: &str) -> String {
        let key = session_key_of(body);
        body.replacen(&format!("\"session\":\"{key}\","), "", 1)
    }

    /// What a fresh skeptic `/delta` bootstrap of `csv` answers, without
    /// its `"session"` key.
    fn fresh_bootstrap(st: &ServerState, csv: &str) -> String {
        let (status, body, _) = route(st, &post_delta(csv, &[("crowd", "skeptic")]));
        assert_eq!(status, 200, "{body}");
        without_session(&body)
    }

    /// Bootstrap a skeptic session on the soccer table, then advance the
    /// base past it: a trust-mode `/clean` confirms Pirlo's `Madrid` and
    /// journals it, so the base now validates the row the session flagged.
    fn session_behind_the_base(st: &ServerState) -> String {
        let (status, body, _) = route(st, &post_delta(SOCCER_CSV, &[("crowd", "skeptic")]));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"row\":1"), "{body}");
        let key = session_key_of(&body);
        let v0 = st.kb.read().unwrap().version();
        let (status, body, _) = route(st, &post_clean(SOCCER_CSV, &[]));
        assert_eq!(status, 200, "{body}");
        assert!(st.kb.read().unwrap().version() > v0, "base advanced");
        key
    }

    /// Two replays on a session the base has moved past: each answers 200
    /// with the body a fresh bootstrap of the edited table gets.
    fn replays_match_fresh_bootstraps(st: &ServerState, key: &str) {
        let append = "op,row,name,country,capital\nupsert,3,Klate,S. Africa,Rome\n";
        let (status, body, _) = route(st, &post_delta(append, &[("base", key)]));
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains("\"erroneous\":1"),
            "Pirlo now validates: {body}"
        );
        let edited = format!("{SOCCER_CSV}Klate,S. Africa,Rome\n");
        assert_eq!(without_session(&body), fresh_bootstrap(st, &edited));

        let fix = "op,row,name,country,capital\nupsert,3,Klate,S. Africa,Pretoria\n";
        let (status, body, _) = route(st, &post_delta(fix, &[("base", key)]));
        assert_eq!(status, 200, "{body}");
        let edited = format!("{SOCCER_CSV}Klate,S. Africa,Pretoria\n");
        assert_eq!(without_session(&body), fresh_bootstrap(st, &edited));
    }

    /// A session the base has moved past is rebuilt from the base on its
    /// next replay instead of being refused, however the base moved: here
    /// by a `/clean`'s journaled enrichment and then by a journaled delta
    /// no request produced.
    #[test]
    fn a_session_the_base_moved_past_resyncs() {
        let (st, dir) = durable_state("resync");
        let key = session_behind_the_base(&st);
        {
            let mut js = st.journal.as_ref().unwrap().lock().unwrap();
            let mut kb = st.kb.write().unwrap();
            kb.begin_delta_capture();
            kb.add_entity("Atlantis", "Atlantis", &[]);
            js.journal.append(&kb.take_delta()).unwrap();
        }
        replays_match_fresh_bootstraps(&st, &key);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two concurrent cleans of one base that journal the same fact: the
    /// second apply moves no version, so two journaled deltas share a
    /// pre-apply version. A session behind both, and behind a further
    /// advance, still replays to the bytes a fresh bootstrap gets.
    #[test]
    fn a_session_behind_a_repeated_fact_resyncs() {
        let (st, dir) = durable_state("repeat");
        let (mut kb, _) = clone_base_kb(&st);
        let table = csv::parse("t", SOCCER_CSV).unwrap();
        let mut crowd = serve_crowd(ServePolicy::Trust, Budget::unlimited()).unwrap();
        let mut late = Katara::new(pipeline_config(&st, Deadline::none(), true))
            .clean(&table, &mut kb, &mut crowd)
            .unwrap();
        let key = session_behind_the_base(&st);
        let v1 = st.kb.read().unwrap().version();
        persist_enrichment(&st, &mut late);
        assert_eq!(st.kb.read().unwrap().version(), v1, "the same fact again");
        // A further advance: Spain's capital is confirmed as Rome too.
        let rome = SOCCER_CSV.replace("Spain,Madrid", "Spain,Rome");
        let (status, body, _) = route(&st, &post_clean(&rome, &[]));
        assert_eq!(status, 200, "{body}");
        assert!(st.kb.read().unwrap().version() > v1, "base advanced");

        // Replay on another thread, so a replay that never ends fails the
        // test instead of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        let replays = {
            let st = Arc::clone(&st);
            std::thread::spawn(move || {
                replays_match_fresh_bootstraps(&st, &key);
                let _ = done.send(());
            })
        };
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("the replay never finished"),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(replays.join().unwrap_err())
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthz_reports_durability_state() {
        let (st, dir) = durable_state("healthz");
        let req = Request {
            method: "GET".into(),
            path: "/healthz".into(),
            query: vec![],
            headers: vec![],
            body: vec![],
        };
        let (status, body, _) = route(&st, &req);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(
            body.contains(
                "\"journal\":{\"last_seq\":0,\"checkpoint_seq\":0,\"lag\":0,\"broken\":false}"
            ),
            "{body}"
        );
        // After an enriching request the lag is visible until compaction.
        route(&st, &post_clean(SOCCER_CSV, &[]));
        let (_, body, _) = route(&st, &req);
        assert!(body.contains("\"lag\":1"), "{body}");
        // Non-durable daemons report no journal object at all.
        let (_, body, _) = route(&state(), &req);
        assert!(!body.contains("journal"), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
