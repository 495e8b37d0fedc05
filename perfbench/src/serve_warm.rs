//! `serve-warm`: the daemon on loopback with a warm snapshot cache; two
//! closed-loop clients post disjoint table slices round-robin, one
//! connection per request.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use katara_core::{CandidateConfig, TableResolution};
use katara_datagen::{edit_stream, EditStreamConfig};
use katara_kb::{ntriples, Kb};
use katara_obs::RunRecorder;
use katara_serve::{ServePolicy, Server, ServerConfig};
use katara_table::{IngestPolicy, Table};

use crate::fixture::{derive, Inputs};
use crate::http;
use crate::pipeline::{assembled_clean, serve_clean_config, trust_crowd};
use crate::stats::{self, Outcome, Tally};
use crate::trace::Tracer;
use crate::{mem, Args, RunOutput, Window};

/// Slices posted round-robin.
pub const SLICES: usize = 16;
/// Rows per slice.
pub const SLICE_ROWS: usize = 100;
/// Concurrent client connections.
pub const CLIENTS: usize = 2;

/// One timed request.
struct Sample {
    slice: usize,
    ms: f64,
    traced: bool,
}

/// Run the workload.
pub fn run(args: &Args, tracer: &Tracer) -> RunOutput {
    let mut inputs = Inputs::generate(args.seed, false);
    let slices = inputs.slices(SLICES, SLICE_ROWS);
    let bodies: Vec<String> = slices.iter().map(katara_table::csv::to_string).collect();

    let setup = Instant::now();
    let kb = {
        let _s = tracer.enter("kb.load", 0, None);
        ntriples::parse("yago", &std::mem::take(&mut inputs.nt)).expect("generated KB parses")
    };
    let triples = crate::triples(&kb);
    // In-process replays need a KB of their own: the daemon owns its copy.
    let local_kb = tracer.enabled().then(|| kb.clone());
    let config = ServerConfig::default();
    assert!(config.max_in_flight > CLIENTS, "the daemon must not shed");
    let server = Server::bind(config, kb, ServePolicy::Trust).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run());

    // Fill the snapshot cache: every slice once, over two connections.
    let warm = {
        let _s = tracer.enter("serve.warmup", 0, None);
        post_all(addr, &bodies)
    };
    let setup_s = setup.elapsed().as_secs_f64();
    let mut out = RunOutput::new(triples, &inputs, &slices);
    out.values.set("setup_s", setup_s);
    // A failed warm-up counts as a failed operation; its slice then
    // fails every check in the timed phase too.
    let warm: Vec<String> = warm
        .into_iter()
        .map(|r| match r {
            Ok(r) if r.status == 200 => r.body,
            Ok(r) => {
                out.tally.record(Outcome::Status(r.status));
                String::new()
            }
            Err(_) => {
                out.tally.record(Outcome::Error);
                String::new()
            }
        })
        .collect();

    let before = http::get(addr, "/metrics").expect("GET /metrics").body;
    let peak_reset = mem::reset_peak();
    let window = Window::new(args.seconds);
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let results: Vec<(Tally, Vec<Sample>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(addr, &bodies, &warm, &next, &window, tracer)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    let after = http::get(addr, "/metrics").expect("GET /metrics").body;
    handle.shutdown();
    daemon.join().expect("daemon thread").expect("daemon run");

    let mut samples = Vec::new();
    for (tally, s) in results {
        out.tally.merge(&tally);
        samples.extend(s);
    }
    let delta = |name| http::counter(&after, name) - http::counter(&before, name);
    // A snapshot miss in the timed phase means the cache lost a slice.
    let misses = delta("serve.snapshot_miss");
    for _ in 0..misses {
        out.tally.fail_completed();
    }
    out.check("no_snapshot_miss", misses == 0);
    out.check("no_shed", delta("serve.shed") == 0);
    let hits = delta("serve.snapshot_hit");
    out.values.set(
        "serve.snapshot_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.values.set("serve.shed", delta("serve.shed") as f64);
    out.values.set(
        "serve.sessions_evicted",
        delta("serve.sessions_evicted") as f64,
    );

    let latencies: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    out.finish_timed(&latencies, wall, mem::peak_mb(), peak_reset);
    if let Some(kb) = local_kb {
        replay(&bodies, &kb, &samples, tracer, &mut out);
        delta_layer(&slices, args.seed, &kb, tracer, &mut out);
        let spans = tracer.spans();
        out.layer_times(&spans, &crate::trace::self_times(&spans));
        out.overhead_from(samples.iter().map(|s| (s.traced, s.ms)));
    }
    out
}

/// Post every body once, spread over [`CLIENTS`] connections.
fn post_all(addr: SocketAddr, bodies: &[String]) -> Vec<std::io::Result<http::Response>> {
    let next = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<std::io::Result<http::Response>>>> =
        bodies.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(body) = bodies.get(i) else { break };
                *slots[i].lock().unwrap() = Some(http::post(addr, "/clean", body.as_bytes()));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every slice posted"))
        .collect()
}

/// One closed-loop client. Request `k` posts slice `k mod SLICES`; in a
/// traced run whole rounds of slices alternate between traced and not,
/// so the two halves see the same slices.
fn client(
    addr: SocketAddr,
    bodies: &[String],
    warm: &[String],
    next: &AtomicU64,
    window: &Window,
    tracer: &Tracer,
) -> (Tally, Vec<Sample>) {
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let mut last = Duration::ZERO;
    while window.admit(samples.len(), last) {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let slice = (k % SLICES as u64) as usize;
        let traced = tracer.enabled() && (k / SLICES as u64) % 2 == 1;
        let span = tracer.enter_if(traced, "serve.request", k, None);
        let response = http::post(addr, "/clean", bodies[slice].as_bytes());
        last = span.finish();
        tally.record(match response {
            Err(_) => Outcome::Error,
            Ok(r) if r.status != 200 => Outcome::Status(r.status),
            Ok(r) if r.body != warm[slice] => Outcome::CheckFailed,
            Ok(_) => Outcome::Ok,
        });
        samples.push(Sample {
            slice,
            ms: last.as_secs_f64() * 1e3,
            traced,
        });
    }
    (tally, samples)
}

/// Replay each slice's warm request in process: CSV parse, `Kb::clone`,
/// then the clean against a snapshot built with a live recorder.
fn replay(bodies: &[String], base: &Kb, samples: &[Sample], tracer: &Tracer, out: &mut RunOutput) {
    let rec = Arc::new(RunRecorder::new());
    let config = serve_clean_config(rec.clone());
    let lenient = IngestPolicy::lenient();
    let mut residuals = Vec::new();
    let mut clone_rss = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let (table, _) =
            katara_table::csv::parse_with_policy("request", body, &lenient).expect("slice parses");
        let snapshot = TableResolution::build(&table, base, CandidateConfig::default().max_rows)
            .with_recorder(rec.clone());
        let op = 1_000_000 + i as u64;
        let root = tracer.enter("serve.replay", op, None);
        let table = {
            let _s = tracer.enter("table.csv_parse", op, root.id());
            katara_table::csv::parse_with_policy("request", body, &lenient)
                .expect("slice parses")
                .0
        };
        let rss = mem::rss_mb();
        let mut kb = {
            let _s = tracer.enter("kb.clone", op, root.id());
            base.clone()
        };
        clone_rss.push(mem::rss_mb() - rss);
        let mut crowd = trust_crowd();
        let result = assembled_clean(
            &config,
            &table,
            &mut kb,
            &mut crowd,
            Some(&snapshot),
            tracer,
            op,
            root.id(),
        );
        let replay_ms = root.finish().as_secs_f64() * 1e3;
        out.check("in_process_replay_ok", result.is_ok());
        let http: Vec<f64> = samples
            .iter()
            .filter(|s| s.slice == i)
            .map(|s| s.ms)
            .collect();
        if !http.is_empty() {
            residuals.push(stats::median(&http) - replay_ms);
        }
    }
    let n = bodies.len() as f64;
    let metrics = rec.snapshot();
    let v = &mut out.values;
    v.set(
        "serve.http_residual_ms",
        residuals.iter().sum::<f64>() / residuals.len().max(1) as f64,
    );
    v.set("kb.clone_rss_mb", clone_rss.iter().sum::<f64>() / n);
    for name in [
        "annotation.enriched_facts",
        "resolve.candidates_fallback",
        "repair.graphs_built",
        "repair.tuples_repaired",
        "discovery.type_probes",
        "discovery.rel_probes",
    ] {
        v.set(name, metrics.counter(name) as f64 / n);
    }
    v.set(
        "resolve.candidates_hit_ratio",
        metrics.counter("resolve.candidates_hit") as f64
            / metrics.counter("resolve.candidates_lookups").max(1) as f64,
    );
}

/// Seeded 1%-rate edit batches replayed in process against a session
/// over the first slices, so a traced run of this workload also measures
/// the delta layer (the `delta-stream` workload is not gated).
fn delta_layer(slices: &[Table], seed: u64, base: &Kb, tracer: &Tracer, out: &mut RunOutput) {
    const SESSION_SLICES: usize = 4;
    const BATCHES: u64 = 8;
    let mut session = slices[0].clone();
    for slice in &slices[1..SESSION_SLICES] {
        for row in slice.rows() {
            session.push_row(row.clone());
        }
    }
    let mut shadow = session.clone();
    let batches: Vec<String> = (0..BATCHES)
        .map(|k| {
            let edits = edit_stream(
                &shadow,
                &session,
                &EditStreamConfig::default(),
                derive(0xD17A + k, seed),
            );
            edits.apply(&mut shadow).expect("generated edits apply");
            edits.to_csv(shadow.columns())
        })
        .collect();
    let batches: Vec<&str> = batches.iter().map(String::as_str).collect();
    let session_csv = katara_table::csv::to_string(&session);
    let mut kb = base.clone();
    crate::delta_stream::replay_in_process(&session_csv, &mut kb, &batches, 2_000_000, tracer, out);
}
