//! `delta-stream`: one `POST /delta` session on the daemon; a closed-loop
//! client posts seeded 1%-rate edit batches, each generated against and
//! then applied to a client-side shadow of the session table.

use std::sync::Arc;
use std::time::{Duration, Instant};

use katara_core::Katara;
use katara_datagen::{edit_stream, EditStreamConfig};
use katara_kb::{ntriples, Kb};
use katara_obs::RunRecorder;
use katara_serve::{ServePolicy, Server, ServerConfig};
use katara_table::{IngestPolicy, TableDelta};

use crate::fixture::{derive, Inputs};
use crate::http;
use crate::pipeline::{serve_delta_config, trust_crowd};
use crate::stats::Outcome;
use crate::trace::Tracer;
use crate::{mem, Args, RunOutput, Window};

/// Rows of the session table.
pub const SESSION_ROWS: usize = 1_000;

/// Base of the per-batch edit-stream seeds.
const STREAM_SEED: u64 = 0xD17A;

/// One timed replay.
struct Sample {
    edits_csv: String,
    ms: f64,
    traced: bool,
}

/// Run the workload.
pub fn run(args: &Args, tracer: &Tracer) -> RunOutput {
    let mut inputs = Inputs::generate(args.seed, false);
    let session_table = inputs.seeded_window(SESSION_ROWS);
    let session_csv = katara_table::csv::to_string(&session_table);

    let setup = Instant::now();
    let kb = {
        let _s = tracer.enter("kb.load", 0, None);
        ntriples::parse("yago", &std::mem::take(&mut inputs.nt)).expect("generated KB parses")
    };
    let triples = crate::triples(&kb);
    let local_kb = tracer.enabled().then(|| kb.clone());
    let server =
        Server::bind(ServerConfig::default(), kb, ServePolicy::Trust).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run());

    let boot = {
        let _s = tracer.enter("delta.bootstrap", 0, None);
        http::post(addr, "/delta", session_csv.as_bytes())
    };
    let setup_s = setup.elapsed().as_secs_f64();
    let mut out = RunOutput::new(triples, &inputs, std::slice::from_ref(&session_table));
    out.values.set("setup_s", setup_s);
    let key = match &boot {
        Ok(r) if r.status == 200 => http::session_key(&r.body).unwrap_or("").to_string(),
        Ok(r) => {
            out.tally.record(Outcome::Status(r.status));
            String::new()
        }
        Err(_) => {
            out.tally.record(Outcome::Error);
            String::new()
        }
    };

    let before = http::get(addr, "/metrics").expect("GET /metrics").body;
    let peak_reset = mem::reset_peak();
    let window = Window::new(args.seconds);
    let path = format!("/delta?base={key}");
    let config = EditStreamConfig::default();
    let mut shadow = session_table.clone();
    let mut samples: Vec<Sample> = Vec::new();
    let mut last_body = String::new();
    let mut last = Duration::ZERO;
    let start = Instant::now();
    while window.admit(samples.len(), last) {
        let k = samples.len() as u64;
        let edits = edit_stream(
            &shadow,
            &inputs.table,
            &config,
            derive(STREAM_SEED + k, args.seed),
        );
        edits.apply(&mut shadow).expect("generated edits apply");
        let edits_csv = edits.to_csv(shadow.columns());
        let traced = tracer.enabled() && k % 2 == 1;
        let span = tracer.enter_if(traced, "delta.request", k, None);
        let response = http::post(addr, &path, edits_csv.as_bytes());
        last = span.finish();
        out.tally.record(match response {
            Err(_) => Outcome::Error,
            Ok(r) if r.status != 200 => Outcome::Status(r.status),
            Ok(r) if http::session_key(&r.body) != Some(key.as_str()) => Outcome::CheckFailed,
            Ok(r) => {
                last_body = r.body;
                Outcome::Ok
            }
        });
        samples.push(Sample {
            edits_csv,
            ms: last.as_secs_f64() * 1e3,
            traced,
        });
    }
    let wall = start.elapsed();
    let after = http::get(addr, "/metrics").expect("GET /metrics").body;
    let peak = mem::peak_mb();

    // The incremental path against the full one: a fresh bootstrap of
    // the shadow table must report what the last replay reported.
    let fresh = http::post(
        addr,
        "/delta",
        katara_table::csv::to_string(&shadow).as_bytes(),
    );
    let same = matches!(&fresh, Ok(r) if r.status == 200
        && http::without_session(&r.body) == http::without_session(&last_body));
    if !same {
        out.tally.fail_completed();
    }
    out.check("last_replay_equals_fresh_bootstrap", same);
    handle.shutdown();
    daemon.join().expect("daemon thread").expect("daemon run");

    let delta = |name| http::counter(&after, name) - http::counter(&before, name);
    out.values.set("serve.shed", delta("serve.shed") as f64);
    out.values.set(
        "serve.sessions_evicted",
        delta("serve.sessions_evicted") as f64,
    );
    let latencies: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    out.finish_timed(&latencies, wall, peak, peak_reset);
    if let Some(mut kb) = local_kb {
        let batches: Vec<&str> = samples.iter().map(|s| s.edits_csv.as_str()).collect();
        let wall = replay_in_process(&session_csv, &mut kb, &batches, 1_000_000, tracer, &mut out);
        let residuals: Vec<f64> = samples.iter().zip(&wall).map(|(s, w)| s.ms - w).collect();
        out.values.set(
            "serve.http_residual_ms",
            residuals.iter().sum::<f64>() / residuals.len().max(1) as f64,
        );
        let spans = tracer.spans();
        out.layer_times(&spans, &crate::trace::self_times(&spans));
        out.overhead_from(samples.iter().map(|s| (s.traced, s.ms)));
    }
    out
}

/// Replay edit batches (edits CSV) through an in-process `DeltaSession`
/// bootstrapped the way the daemon bootstraps one, under spans, and set
/// the delta-layer counters per batch. Returns each batch's wall time in
/// ms. Batch `k` is recorded as operation `first_op + k`.
pub fn replay_in_process(
    session_csv: &str,
    kb: &mut Kb,
    batches: &[&str],
    first_op: u64,
    tracer: &Tracer,
    out: &mut RunOutput,
) -> Vec<f64> {
    let rec = Arc::new(RunRecorder::new());
    let (table, _) =
        katara_table::csv::parse_with_policy("request", session_csv, &IngestPolicy::lenient())
            .expect("session table parses");
    let katara = Katara::new(serve_delta_config(rec.clone()));
    let Ok((mut session, _)) = katara.delta_session(&table, kb, &mut trust_crowd()) else {
        out.check("in_process_bootstrap_ok", false);
        return Vec::new();
    };
    let boot = rec.snapshot();
    let mut wall = Vec::with_capacity(batches.len());
    for (k, edits_csv) in batches.iter().enumerate() {
        let op = first_op + k as u64;
        let root = tracer.enter("delta.replay_op", op, None);
        let edits = {
            let _s = tracer.enter("table.delta_parse", op, root.id());
            TableDelta::parse_csv(edits_csv, table.num_columns())
        };
        let ok = match edits {
            Ok(edits) => {
                let _s = tracer.enter("delta.replay", op, root.id());
                session.clean_delta(kb, &mut trust_crowd(), &edits).is_ok()
            }
            Err(_) => false,
        };
        wall.push(root.finish().as_secs_f64() * 1e3);
        out.check("in_process_replay_ok", ok);
    }
    let n = batches.len().max(1) as f64;
    let after = rec.snapshot();
    for name in [
        "delta.values_resolved",
        "delta.patterns_rescored",
        "delta.tuples_repaired",
        "resolve.values_evicted",
    ] {
        out.values
            .set(name, (after.counter(name) - boot.counter(name)) as f64 / n);
    }
    wall
}
