//! Bench for the **cleaning daemon** (DESIGN.md §5g): end-to-end HTTP
//! `POST /clean` requests against a live `katara-serve` instance, cold
//! (`?snapshot=cold`, every request rebuilds the `TableResolution`) vs
//! warm (the daemon's snapshot cache hits), at concurrency 1 and 2.
//! Emits `BENCH_serve.json` at the workspace root with requests/s and
//! p50/p99 latencies per batch (quick mode via `KATARA_BENCH_QUICK=1`),
//! and embeds the daemon's own metrics after its first `/clean`. In full
//! mode each batch keeps issuing requests for a fixed window, so a warm
//! p50 rests on about a hundred requests, not twenty.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use katara_bench::perf::{self, Field};
use katara_bench::resolve_fixture;
use katara_serve::{ServePolicy, Server, ServerConfig};

/// The fewest requests a measured batch issues.
fn batch_requests() -> usize {
    if perf::quick_mode() {
        6
    } else {
        20
    }
}

/// How long a batch keeps issuing requests past its minimum count. A
/// warm request alternates between about 80 and about 120 ms in runs of
/// a few requests, so twenty of them (two seconds) gave warm p50s 153 and
/// 81 ms in two runs.
fn batch_window() -> Duration {
    if perf::quick_mode() {
        Duration::ZERO
    } else {
        Duration::from_secs(10)
    }
}

/// Concurrency levels to measure: the one or two cores a bench box has.
const CONCURRENCY: [usize; 2] = [1, 2];

/// One blocking HTTP request; returns (status, latency in ms).
fn request(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, f64) {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, start.elapsed().as_secs_f64() * 1e3)
}

/// Run one batch across `concurrency` client threads: at least `n`
/// requests, and more until `window` has passed. Returns (per-request
/// latencies in ms, total wall ms).
fn run_batch(
    addr: SocketAddr,
    path: &str,
    body: &[u8],
    n: usize,
    window: Duration,
    concurrency: usize,
) -> (Vec<f64>, f64) {
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let body: Arc<Vec<u8>> = Arc::new(body.to_vec());
    let path = path.to_string();
    let issued = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let workers: Vec<_> = (0..concurrency)
        .map(|_| {
            let latencies = Arc::clone(&latencies);
            let body = Arc::clone(&body);
            let path = path.clone();
            let issued = Arc::clone(&issued);
            std::thread::spawn(move || {
                while issued.fetch_add(1, Ordering::Relaxed) < n || start.elapsed() < window {
                    let (status, ms) = request(addr, &path, &body);
                    assert!(
                        status == 200 || status == 206,
                        "bench request failed with {status}"
                    );
                    latencies.lock().unwrap().push(ms);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let latencies = Arc::try_unwrap(latencies)
        .expect("all clients joined")
        .into_inner()
        .unwrap();
    (latencies, total_ms)
}

/// Cold vs warm daemon requests at two concurrency levels. The Criterion
/// group gives the interactive view; the [`perf::Report`] gives the
/// machine-readable artifact.
fn bench_serve(c: &mut Criterion) {
    let fixture = resolve_fixture();
    let body = katara_table::csv::to_string(&fixture.table.table).into_bytes();
    eprintln!(
        "serve fixture: {} ({} injected errors, {} byte body)",
        fixture.name,
        fixture.errors,
        body.len()
    );

    let config = ServerConfig {
        max_in_flight: 16,
        ..ServerConfig::default()
    };
    let threads = config.threads.get();
    let server = Server::bind(config, fixture.kb.clone(), ServePolicy::Trust).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // Populate the warm cache before any warm measurement. The report
    // embeds what the daemon recorded for this one request: a snapshot
    // build plus a clean with enrichment, as every cold request does.
    let (status, _) = request(addr, "/clean", &body);
    assert!(status == 200 || status == 206, "warmup failed: {status}");
    let mut metrics = handle.metrics();
    metrics.threads = threads;

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("clean_warm", |b| {
        b.iter(|| black_box(request(addr, "/clean", &body)))
    });
    group.bench_function("clean_cold", |b| {
        b.iter(|| black_box(request(addr, "/clean?snapshot=cold", &body)))
    });
    group.finish();

    let mut report = perf::Report::new("serve", &fixture.name);
    let (n, window) = (batch_requests(), batch_window());
    for concurrency in CONCURRENCY {
        for (config, path) in [("cold", "/clean?snapshot=cold"), ("warm", "/clean")] {
            let (lat, wall) = run_batch(addr, path, &body, n, window, concurrency);
            let (req_per_s, p50_ms, p99_ms) = perf::batch_rates(&lat, wall);
            report.samples.push(vec![
                ("config", Field::str(config)),
                ("concurrency", Field::Int(concurrency)),
                ("requests", Field::Int(lat.len())),
                ("req_per_s", Field::F3(req_per_s)),
                ("p50_ms", Field::F3(p50_ms)),
                ("p99_ms", Field::F3(p99_ms)),
            ]);
        }
    }
    report.metrics = Some(metrics);
    let path = report.write().expect("write BENCH_serve.json");
    eprintln!("serve report: {}", path.display());

    handle.shutdown();
    server_thread.join().expect("server drained");
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
