//! Integration tests for the daemon over real sockets: status mapping,
//! admission shedding, slowloris cutoff, seeded client-fault injection,
//! and graceful drain. The invariant under fire is the one from the
//! issue: no panics, no leaked in-flight slots — the queue-depth gauge
//! always returns to zero.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use katara_kb::{Kb, KbBuilder};
use katara_serve::{
    ClientFault, ParseLimits, ServePolicy, Server, ServerConfig, ServerFaultPlan, ServerHandle,
};
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn soccer_kb() -> Kb {
    let mut b = KbBuilder::new().with_name("mini-yago");
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

/// Boot a daemon on an ephemeral port; returns its address, control
/// handle, and the join handle for `run()`.
fn boot(config: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(config, soccer_kb(), ServePolicy::Trust).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (addr, handle, join)
}

/// Send raw bytes, read the whole response (the server closes), return
/// (status, body).
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A draining server answers 503 before reading the request and may
    // close first — the write can legitimately fail, the read cannot.
    let _ = stream.write_all(bytes);
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    parse_response(&response)
}

fn parse_response(response: &str) -> (u16, String) {
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post_clean(query: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /clean{query} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Poll until the daemon reports zero in-flight requests (the drain
/// barrier for assertions about final gauge state).
fn wait_idle(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.in_flight() > 0 {
        assert!(
            Instant::now() < deadline,
            "in-flight requests never drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn status_mapping_over_real_sockets() {
    let (addr, handle, join) = boot(ServerConfig::default());

    let (status, body) = send_raw(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""));

    let (status, body) = send_raw(addr, &post_clean("", SOCCER_CSV));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"pattern\""));

    // Zero deadline: 408 before the pipeline starts.
    let (status, _) = send_raw(addr, &post_clean("?deadline_ms=0", SOCCER_CSV));
    assert_eq!(status, 408);

    // Starved crowd budget: degraded but honest — 206.
    let (status, body) = send_raw(
        addr,
        &post_clean("?crowd=skeptic&max_questions=0", SOCCER_CSV),
    );
    assert_eq!(status, 206, "{body}");
    assert!(body.contains("\"budget_exhausted\":true"));

    // Garbage: quarantined.
    let (status, _) = send_raw(addr, &post_clean("", "\u{0}\u{1}"));
    assert_eq!(status, 400);
    let (status, _) = send_raw(addr, b"PATCH /clean HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405);
    let (status, _) = send_raw(addr, b"GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(status, 404);

    handle.shutdown();
    join.join().expect("clean exit");
}

#[test]
fn oversized_body_is_rejected_without_reading_it() {
    let config = ServerConfig {
        limits: ParseLimits {
            max_body_bytes: 64,
            ..ParseLimits::default()
        },
        ..ServerConfig::default()
    };
    let (addr, handle, join) = boot(config);
    // Declare far more than the cap; never send it.
    let (status, body) = send_raw(
        addr,
        b"POST /clean HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("request rejected"));
    handle.shutdown();
    join.join().expect("clean exit");
}

#[test]
fn slow_trickled_requests_hit_the_wall_cutoff() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(100),
        request_wall: Duration::from_millis(250),
        ..ServerConfig::default()
    };
    let (addr, handle, join) = boot(config);
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Trickle header bytes slowly enough to take ~forever, fast enough
    // to stay under the per-read timeout: the wall cutoff must fire.
    let head = b"POST /clean HTTP/1.1\r\nContent-Length: 10\r\nX-Slow: ";
    let start = Instant::now();
    for chunk in head.chunks(4) {
        if stream.write_all(chunk).is_err() {
            break; // server already cut us off
        }
        std::thread::sleep(Duration::from_millis(40));
        if start.elapsed() > Duration::from_secs(2) {
            break;
        }
    }
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    let (status, _) = parse_response(&response);
    assert_eq!(status, 408, "slowloris must be cut off: {response:?}");
    handle.shutdown();
    join.join().expect("clean exit");
}

#[test]
fn admission_control_sheds_with_retry_after() {
    let config = ServerConfig {
        max_in_flight: 0, // every clean sheds; health endpoints still work
        ..ServerConfig::default()
    };
    let (addr, handle, join) = boot(config);
    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(&post_clean("", SOCCER_CSV))
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (status, _) = parse_response(&response);
        assert_eq!(status, 429);
        assert!(response.contains("Retry-After: 1"), "{response:?}");
    }
    let (status, _) = send_raw(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200, "health must not be behind admission");
    wait_idle(&handle);
    assert!(
        handle
            .metrics()
            .to_json()
            .contains("\"serve.queue_depth\": 0"),
        "shed requests must release their slots"
    );
    handle.shutdown();
    join.join().expect("clean exit");
}

#[test]
fn fault_plan_mix_leaves_no_leaked_slots() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(80),
        request_wall: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, handle, join) = boot(config);
    let plan = ServerFaultPlan {
        slow_client_rate: 0.25,
        truncate_body_rate: 0.25,
        disconnect_rate: 0.25,
        seed: 42,
    };
    plan.validate().expect("valid plan");
    let mut healthy = 0u32;
    let mut faulted = 0u32;
    for i in 0..24u64 {
        match plan.fault_for(i) {
            None => {
                let (status, body) = send_raw(addr, &post_clean("", SOCCER_CSV));
                assert!(status == 200 || status == 206, "healthy request: {body}");
                healthy += 1;
            }
            Some(ClientFault::SlowClient) => {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let _ = stream.write_all(b"POST /clean HTTP/1.1\r\nX-");
                std::thread::sleep(Duration::from_millis(250));
                let mut response = String::new();
                let _ = stream.read_to_string(&mut response);
                if !response.is_empty() {
                    assert_eq!(parse_response(&response).0, 408, "{response:?}");
                }
                faulted += 1;
            }
            Some(ClientFault::TruncatedBody) => {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let _ =
                    stream.write_all(b"POST /clean HTTP/1.1\r\nContent-Length: 500\r\n\r\nshort");
                drop(stream); // close with 495 bytes owed
                faulted += 1;
            }
            Some(ClientFault::Disconnect) => {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let _ = stream.write_all(b"POS");
                drop(stream);
                faulted += 1;
            }
        }
    }
    assert!(healthy > 0 && faulted > 0, "the mix must actually mix");

    // Give handlers for vanished clients a moment to observe EOF.
    std::thread::sleep(Duration::from_millis(300));
    wait_idle(&handle);
    let metrics = handle.metrics().to_json();
    assert!(
        metrics.contains("\"serve.queue_depth\": 0"),
        "no leaked in-flight slots after the fault mix: {metrics}"
    );
    assert!(metrics.contains("\"serve.quarantined\""));
    let (status, body) = send_raw(addr, &post_clean("", SOCCER_CSV));
    assert!(
        status == 200 || status == 206,
        "server must stay healthy after abuse: {body}"
    );
    handle.shutdown();
    join.join().expect("clean exit");
}

#[test]
fn durable_daemon_persists_enrichment_across_restarts() {
    let dir = std::env::temp_dir().join(format!(
        "katara-daemon-journal-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: serve one enriching request persist-before-ack.
    let (server, replay) = Server::bind_durable(
        ServerConfig::default(),
        soccer_kb(),
        ServePolicy::Trust,
        &dir,
    )
    .expect("bind durable");
    assert_eq!(
        replay.replayed_records, 0,
        "fresh dir has nothing to replay"
    );
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    let (status, body) = send_raw(addr, &post_clean("", SOCCER_CSV));
    assert_eq!(status, 200, "{body}");
    let (status, body) = send_raw(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"journal\""), "durable healthz: {body}");
    handle.shutdown();
    join.join().expect("clean exit");

    // The journal now prescribes the enrichment the ack promised.
    let (recovered, report) = katara_kb::journal::recover_dir(&dir).expect("recover");
    assert!(
        report.replayed_records >= 1,
        "acked enrichment must be journaled: {report:?}"
    );
    assert!(recovered.num_facts() > soccer_kb().num_facts());

    // Second life: same dir, pristine base KB — boot replays it all.
    let (server, replay) = Server::bind_durable(
        ServerConfig::default(),
        soccer_kb(),
        ServePolicy::Trust,
        &dir,
    )
    .expect("rebind durable");
    assert!(
        replay.replayed_records >= 1,
        "restart must replay: {replay:?}"
    );
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    // Boot ends with a checkpoint: zero lag, and the daemon is serving.
    let (status, body) = send_raw(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"lag\":0"), "post-replay lag: {body}");
    let (status, body) = send_raw(addr, &post_clean("", SOCCER_CSV));
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
    join.join().expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A counter's value in a `GET /metrics` body.
fn metrics_counter(body: &str, name: &str) -> u64 {
    body.split(&format!("\"{name}\": "))
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{name} is not exported: {body}"))
}

/// What one soak client sent and saw.
#[derive(Default)]
struct Tally {
    /// Connections opened, whatever became of them.
    opened: u64,
    /// `/clean` requests sent with a well-formed body.
    cleans: u64,
    /// Responses with status `429`.
    shed: u64,
    /// `/delta` bootstraps.
    bootstraps: u64,
}

/// A request on its own connection, counted.
fn soak_send(addr: SocketAddr, tally: &mut Tally, bytes: &[u8]) -> (u16, String) {
    tally.opened += 1;
    let (status, body) = send_raw(addr, bytes);
    tally.shed += u64::from(status == 429);
    (status, body)
}

fn post_delta(query: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /delta{query} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The `"session":"<hex>"` key of a `/delta` response.
fn session_key_of(body: &str) -> String {
    let tail = body
        .split("\"session\":\"")
        .nth(1)
        .unwrap_or_else(|| panic!("no session key in {body}"));
    tail[..tail.find('"').expect("closing quote")].to_string()
}

/// Six `/clean`s released at once against an admission cap of two.
fn burst(addr: SocketAddr, tally: &mut Tally, body: &str) {
    const CLIENTS: usize = 6;
    let gate = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let gate = Arc::clone(&gate);
            let request = post_clean("", body);
            std::thread::spawn(move || {
                gate.wait();
                send_raw(addr, &request)
            })
        })
        .collect();
    for client in clients {
        let (status, body) = client.join().expect("burst client");
        assert!(matches!(status, 200 | 206 | 429), "{status}: {body}");
        tally.shed += u64::from(status == 429);
    }
    tally.opened += CLIENTS as u64;
    tally.cleans += CLIENTS as u64;
}

/// The soak gate: 1,200 seeded connections over real sockets leave the
/// daemon bounded and its books balanced. The mix posts
/// `/clean` on more distinct bodies than the snapshot cache holds,
/// bootstraps more `/delta` sessions than the session cache holds and
/// replays them, bursts past the admission cap, sends zero deadlines,
/// and plays `ServerFaultPlan` client faults.
#[test]
fn a_soak_of_mixed_requests_leaves_the_daemon_bounded() {
    const BODIES: usize = 96; // distinct /clean bodies, past the 64-entry cache
    const SESSIONS: usize = 16; // the session cache's cap
    const REQUESTS: u64 = 1_200;
    let config = ServerConfig {
        max_in_flight: 2,
        read_timeout: Duration::from_millis(60),
        request_wall: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let (addr, handle, join) = boot(config);
    let faults = ServerFaultPlan {
        slow_client_rate: 0.02,
        truncate_body_rate: 0.02,
        disconnect_rate: 0.02,
        seed: 0x50a6,
    };
    faults.validate().expect("valid plan");
    let mut rng = StdRng::seed_from_u64(0x50a6);
    let body = |i: usize| format!("{SOCCER_CSV}Extra{i},Italy,Rome\n");
    let mut tally = Tally::default();
    let mut posted = [false; BODIES];
    // The session cache as the daemon keeps it: least recently used
    // first. Keys that fell out of it answer 404.
    let mut resident: Vec<String> = Vec::new();
    let mut evicted: Vec<String> = Vec::new();
    let mut parked: Vec<TcpStream> = Vec::new();
    let mut step = 0u64;

    while tally.opened < REQUESTS {
        step += 1;
        if let Some(fault) = faults.fault_for(step) {
            tally.opened += 1;
            let mut stream = TcpStream::connect(addr).expect("connect");
            match fault {
                ClientFault::SlowClient => {
                    let _ = stream.write_all(b"POST /clean HTTP/1.1\r\nX-");
                    parked.push(stream); // read after the mix
                }
                ClientFault::TruncatedBody => {
                    let _ = stream
                        .write_all(b"POST /clean HTTP/1.1\r\nContent-Length: 500\r\n\r\nshort");
                }
                ClientFault::Disconnect => {
                    let _ = stream.write_all(b"POS");
                }
            }
            continue;
        }
        match rng.random_range(0..100u32) {
            0..=59 => {
                let i = rng.random_range(0..BODIES);
                posted[i] = true;
                let crowd = if rng.random_bool(0.5) {
                    "trust"
                } else {
                    "skeptic"
                };
                let (status, body) = soak_send(
                    addr,
                    &mut tally,
                    &post_clean(&format!("?crowd={crowd}"), &body(i)),
                );
                assert!(matches!(status, 200 | 206), "{status}: {body}");
                tally.cleans += 1;
            }
            60..=65 => {
                let i = rng.random_range(0..BODIES);
                let (status, body) =
                    soak_send(addr, &mut tally, &post_delta("?crowd=skeptic", &body(i)));
                assert!(matches!(status, 200 | 206), "{status}: {body}");
                tally.bootstraps += 1;
                resident.push(session_key_of(&body));
                if resident.len() > SESSIONS {
                    evicted.push(resident.remove(0));
                }
            }
            66..=85 if !resident.is_empty() || !evicted.is_empty() => {
                let pick = rng.random_range(0..resident.len() + evicted.len());
                let capital = if rng.random_bool(0.5) {
                    "Rome"
                } else {
                    "Madrid"
                };
                let edits =
                    format!("op,row,name,country,capital\nupsert,1,Pirlo,Italy,{capital}\n");
                if pick < resident.len() {
                    let key = resident.remove(pick);
                    let (status, body) = soak_send(
                        addr,
                        &mut tally,
                        &post_delta(&format!("?base={key}"), &edits),
                    );
                    assert!(matches!(status, 200 | 206), "{status}: {body}");
                    resident.push(key);
                } else {
                    let key = &evicted[pick - resident.len()];
                    let (status, body) = soak_send(
                        addr,
                        &mut tally,
                        &post_delta(&format!("?base={key}"), &edits),
                    );
                    assert_eq!(status, 404, "an evicted session: {body}");
                }
            }
            86..=89 => {
                let (status, body) = soak_send(
                    addr,
                    &mut tally,
                    &post_clean("?deadline_ms=0", &body(rng.random_range(0..BODIES))),
                );
                assert_eq!(status, 408, "{body}");
                tally.cleans += 1;
            }
            90..=91 => {
                let (status, body) = soak_send(addr, &mut tally, b"GET /healthz HTTP/1.1\r\n\r\n");
                assert_eq!(status, 200, "{body}");
            }
            _ => burst(addr, &mut tally, &body(rng.random_range(0..BODIES))),
        }
    }
    // Bursts race the handlers; the seeded mix sheds in practice, and
    // a few more bursts make sure of it.
    for _ in 0..50 {
        if tally.shed > 0 {
            break;
        }
        burst(addr, &mut tally, SOCCER_CSV);
    }
    assert!(tally.shed > 0, "no burst ever went past the admission cap");
    assert!(
        tally.bootstraps > SESSIONS as u64,
        "the session cache must evict"
    );
    assert!(
        posted.iter().filter(|&&p| p).count() > 64,
        "the snapshot cache must evict"
    );
    for mut stream in parked {
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        if !response.is_empty() {
            assert_eq!(parse_response(&response).0, 408, "{response:?}");
        }
    }

    // Drain: every connection opened so far is counted once its handler
    // starts; a metrics request counts itself before it reads the totals.
    wait_idle(&handle);
    let wait = Instant::now() + Duration::from_secs(10);
    let metrics = loop {
        let (status, body) = soak_send(addr, &mut tally, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        let requests = metrics_counter(&body, "serve.requests");
        assert!(
            requests <= tally.opened,
            "{requests} requests, {} connections",
            tally.opened
        );
        if requests == tally.opened {
            break body;
        }
        assert!(
            Instant::now() < wait,
            "{requests} of {} connections counted",
            tally.opened
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // The soak runs more cleans than the span log keeps phase spans for.
    let spans = metrics.matches("\"wall_ms\"").count();
    assert_eq!(spans, 4_096, "the span log is full, and no fuller");
    assert!(metrics.contains("\"serve.queue_depth\": 0"), "{metrics}");
    assert_eq!(
        metrics_counter(&metrics, "serve.sessions_evicted"),
        tally.bootstraps - SESSIONS as u64
    );
    assert_eq!(metrics_counter(&metrics, "serve.shed"), tally.shed);
    let snapshots = metrics_counter(&metrics, "serve.snapshot_hit")
        + metrics_counter(&metrics, "serve.snapshot_miss");
    assert_eq!(snapshots, tally.cleans - tally.shed, "every admitted clean");
    let distinct = posted.iter().filter(|&&p| p).count() as u64 + 1;
    assert!(
        metrics_counter(&metrics, "serve.snapshot_miss") > distinct,
        "an evicted body is built again"
    );
    handle.shutdown();
    join.join().expect("clean exit");
}

#[test]
fn shutdown_drains_in_flight_work_then_exits() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let (addr, handle, join) = boot(config);
    // Park one connection mid-request so a handler is alive.
    let mut parked = TcpStream::connect(addr).expect("connect");
    parked
        .write_all(b"POST /clean HTTP/1.1\r\n")
        .expect("write");
    std::thread::sleep(Duration::from_millis(50));

    handle.shutdown();
    // New connections are refused with 503 while the old one drains.
    let (status, body) = send_raw(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 503, "{body}");

    // The parked handler times out, answers, and the server exits 0.
    let mut response = String::new();
    let _ = parked.read_to_string(&mut response);
    join.join().expect("run() must return after the drain");
}
