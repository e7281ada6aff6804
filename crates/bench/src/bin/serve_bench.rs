//! `serve_bench`: load generation against a live `medea-server` over
//! real TCP, emitted as machine-readable JSON (`BENCH_serve.json`).
//!
//! Two load shapes per run:
//!
//! - **closed loop** — C client threads, each a place → query → release
//!   cycle issued strictly request-by-request. Measures the sustained
//!   request rate the daemon serves when clients wait, and the
//!   admission-latency distribution (send → `accepted`/`overloaded`)
//!   with no queueing delay of the generator's own making.
//! - **open loop** — C sender threads pace place/query frames at a fixed
//!   target rate regardless of responses (a dedicated receiver thread
//!   per connection drains replies), the shape that actually exposes
//!   backpressure: when arrivals outrun the batcher, admission must
//!   shed with typed `overloaded`, never hang or drop a response.
//!
//! Every row records requests, responses, typed errors, sheds, achieved
//! req/s, and p50/p99/max admission latency. The run asserts the
//! response ledger (`responses == requests`, no response lost or
//! duplicated) and that the server counted zero protocol errors.
//!
//! Usage: `cargo run --release -p medea-bench --bin serve_bench`
//! (`--smoke` runs reduced scenarios for CI and asserts the zero-error,
//! zero-loss gate).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use medea_bench::BenchJson;
use medea_cluster::{ClusterState, Resources};
use medea_core::{LraAlgorithm, MedeaScheduler};
use medea_obs::MetricsRegistry;
use medea_server::{
    write_frame, AdmissionConfig, ContainerSpec, FrameReader, MedeaServer, Request, Response,
    ServerConfig, ServerHandle, MAX_FRAME_BYTES,
};

struct RowResult {
    scenario: String,
    clients: usize,
    target_rps: u64,
    requests: u64,
    responses: u64,
    accepted: u64,
    shed: u64,
    errors: u64,
    elapsed_ms: u64,
    achieved_rps: u64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

fn start_server(nodes: usize) -> ServerHandle {
    let cluster =
        ClusterState::homogeneous(nodes, Resources::new(16 * 1024, 16), (nodes / 8).max(1));
    let scheduler = MedeaScheduler::new(cluster, LraAlgorithm::NodeCandidates, 10);
    let cfg = ServerConfig {
        max_connections: 128,
        admission: AdmissionConfig {
            queue_capacity: 2048,
            tenant_quota: 1024,
            batch_max_size: 64,
            batch_max_wait_ms: 5,
            retry_after_ms: 25,
        },
        ..ServerConfig::default()
    };
    MedeaServer::start(scheduler, cfg, MetricsRegistry::new()).expect("bind server")
}

fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * q / 100) as usize]
}

fn summarize(
    scenario: &str,
    clients: usize,
    target_rps: u64,
    elapsed: Duration,
    outcomes: Vec<ClientOutcome>,
) -> RowResult {
    let mut latencies: Vec<u64> = Vec::new();
    let (mut requests, mut responses, mut accepted, mut shed, mut errors) = (0, 0, 0, 0, 0);
    for o in outcomes {
        requests += o.requests;
        responses += o.responses;
        accepted += o.accepted;
        shed += o.shed;
        errors += o.errors;
        latencies.extend(o.latencies_us);
    }
    latencies.sort_unstable();
    let elapsed_ms = (elapsed.as_millis() as u64).max(1);
    RowResult {
        scenario: scenario.to_string(),
        clients,
        target_rps,
        requests,
        responses,
        accepted,
        shed,
        errors,
        elapsed_ms,
        achieved_rps: responses * 1000 / elapsed_ms,
        p50_us: percentile(&latencies, 50),
        p99_us: percentile(&latencies, 99),
        max_us: latencies.last().copied().unwrap_or(0),
    }
}

#[derive(Default)]
struct ClientOutcome {
    requests: u64,
    responses: u64,
    accepted: u64,
    shed: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

impl ClientOutcome {
    fn count(&mut self, resp: &Response) {
        self.responses += 1;
        match resp {
            Response::Accepted { .. } => self.accepted += 1,
            Response::Overloaded { .. } => self.shed += 1,
            Response::Error { .. } => self.errors += 1,
            _ => {}
        }
    }
}

/// One blocking request/response round trip, timing the reply.
fn call_timed(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    req: &Request,
    outcome: &mut ClientOutcome,
) -> Response {
    let t0 = Instant::now();
    write_frame(stream, req.encode().as_bytes()).expect("send");
    outcome.requests += 1;
    loop {
        match reader.poll(stream) {
            Ok(Some(payload)) => {
                let text = std::str::from_utf8(&payload).expect("utf8");
                let resp = Response::decode(text).expect("decodable");
                outcome.latencies_us.push(t0.elapsed().as_micros() as u64);
                outcome.count(&resp);
                return resp;
            }
            Ok(None) => {
                assert!(
                    t0.elapsed() < Duration::from_secs(30),
                    "response lost: no reply within 30s"
                );
            }
            Err(e) => panic!("connection error mid-bench: {e}"),
        }
    }
}

fn connect(addr: SocketAddr, read_timeout_ms: u64) -> (TcpStream, FrameReader) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(read_timeout_ms)))
        .expect("timeout");
    let _ = stream.set_nodelay(true);
    (stream, FrameReader::new(MAX_FRAME_BYTES))
}

fn place_request(id: u64, tenant: &str, app: u64) -> Request {
    Request::Place {
        id,
        tenant: tenant.to_string(),
        app,
        containers: vec![ContainerSpec {
            count: 1,
            memory_mb: 512,
            vcores: 1,
            tags: vec![format!("bench{app}")],
        }],
        constraints: vec![],
    }
}

/// Closed loop: each client thread runs `iters` place → query → release
/// cycles, waiting for every reply before the next request.
fn closed_loop(addr: SocketAddr, clients: usize, iters: u64, app_base: u64) -> RowResult {
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let tenant = format!("closed{c}");
                let (mut stream, mut reader) = connect(addr, 10);
                let mut out = ClientOutcome::default();
                for k in 0..iters {
                    let app = app_base + (c as u64) * iters + k;
                    let id = app * 10;
                    let placed = matches!(
                        call_timed(
                            &mut stream,
                            &mut reader,
                            &place_request(id, &tenant, app),
                            &mut out
                        ),
                        Response::Accepted { .. }
                    );
                    call_timed(
                        &mut stream,
                        &mut reader,
                        &Request::Query { id: id + 1, app },
                        &mut out,
                    );
                    if placed {
                        call_timed(
                            &mut stream,
                            &mut reader,
                            &Request::Release {
                                id: id + 2,
                                tenant: tenant.clone(),
                                app,
                            },
                            &mut out,
                        );
                    }
                }
                out
            })
        })
        .collect();
    let outcomes: Vec<ClientOutcome> = workers
        .into_iter()
        .map(|w| w.join().expect("closed-loop client"))
        .collect();
    summarize("closed_loop", clients, 0, t0.elapsed(), outcomes)
}

/// Open loop: sender threads pace place frames at the target aggregate
/// rate; a receiver thread per connection drains replies and stamps
/// arrival times. Lost responses surface as `requests != responses`.
fn open_loop(
    addr: SocketAddr,
    clients: usize,
    target_rps: u64,
    per_client: u64,
    app_base: u64,
) -> RowResult {
    let t0 = Instant::now();
    let interval = Duration::from_micros(1_000_000 * clients as u64 / target_rps.max(1));
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let tenant = format!("open{c}");
                let (mut stream, reader) = connect(addr, 5);
                let mut recv_stream = stream.try_clone().expect("clone stream");
                let receiver = std::thread::spawn(move || {
                    let mut reader = reader;
                    let mut got: HashMap<u64, Instant> = HashMap::new();
                    let (mut accepted, mut shed, mut errors) = (0u64, 0u64, 0u64);
                    let mut last_progress = Instant::now();
                    loop {
                        match reader.poll(&mut recv_stream) {
                            Ok(Some(payload)) => {
                                let text = std::str::from_utf8(&payload).expect("utf8");
                                let resp = Response::decode(text).expect("decodable");
                                match &resp {
                                    Response::Accepted { .. } => accepted += 1,
                                    Response::Overloaded { .. } => shed += 1,
                                    Response::Error { .. } => errors += 1,
                                    _ => {}
                                }
                                // A duplicated id would overwrite here;
                                // the caller cross-checks counts.
                                got.insert(resp.id(), Instant::now());
                                last_progress = Instant::now();
                                if resp.id() == u64::MAX {
                                    return (got, accepted, shed, errors);
                                }
                            }
                            Ok(None) => {
                                assert!(
                                    last_progress.elapsed() < Duration::from_secs(30),
                                    "open-loop receiver starved for 30s"
                                );
                            }
                            Err(e) => panic!("open-loop receiver error: {e}"),
                        }
                    }
                });

                let start = Instant::now();
                let mut sent: Vec<(u64, Instant)> = Vec::with_capacity(per_client as usize);
                for k in 0..per_client {
                    let due = start + interval * (k as u32);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let app = app_base + (c as u64) * per_client + k;
                    let id = app * 10;
                    let req = if k % 8 == 7 {
                        Request::Query { id, app: app - 1 }
                    } else {
                        place_request(id, &tenant, app)
                    };
                    sent.push((id, Instant::now()));
                    write_frame(&mut stream, req.encode().as_bytes()).expect("send");
                }
                // Fence: a final query with the sentinel id tells the
                // receiver the stream is complete once it's answered
                // (per-connection replies are ordered).
                sent.push((u64::MAX, Instant::now()));
                write_frame(
                    &mut stream,
                    Request::Query {
                        id: u64::MAX,
                        app: 0,
                    }
                    .encode()
                    .as_bytes(),
                )
                .expect("send fence");

                let (got, accepted, shed, errors) = receiver.join().expect("receiver thread");
                let mut out = ClientOutcome {
                    accepted,
                    shed,
                    errors,
                    ..ClientOutcome::default()
                };
                for (id, t_send) in &sent {
                    out.requests += 1;
                    if let Some(t_recv) = got.get(id) {
                        out.responses += 1;
                        out.latencies_us
                            .push(t_recv.duration_since(*t_send).as_micros() as u64);
                    }
                }
                out
            })
        })
        .collect();
    let outcomes: Vec<ClientOutcome> = workers
        .into_iter()
        .map(|w| w.join().expect("open-loop client"))
        .collect();
    summarize("open_loop", clients, target_rps, t0.elapsed(), outcomes)
}

/// The inside of one `rows` row of `BENCH_serve.json`.
fn row_json(r: &RowResult) -> String {
    format!(
        "\"scenario\": \"{}\", \"clients\": {}, \"target_rps\": {}, \
         \"requests\": {}, \"responses\": {}, \"accepted\": {}, \
         \"shed\": {}, \"errors\": {}, \"elapsed_ms\": {}, \
         \"achieved_rps\": {}, \"p50_us\": {}, \"p99_us\": {}, \
         \"max_us\": {}",
        r.scenario,
        r.clients,
        r.target_rps,
        r.requests,
        r.responses,
        r.accepted,
        r.shed,
        r.errors,
        r.elapsed_ms,
        r.achieved_rps,
        r.p50_us,
        r.p99_us,
        r.max_us,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let handle = start_server(if smoke { 64 } else { 256 });
    let addr = handle.addr();
    let mut rows = Vec::new();

    // Closed loop: sustained request/response throughput.
    let (clients, iters) = if smoke { (4, 40) } else { (8, 250) };
    rows.push(closed_loop(addr, clients, iters, 1));

    // Open loop: paced arrivals at increasing target rates.
    let rates: &[u64] = if smoke { &[400] } else { &[500, 1000, 2000] };
    for (i, &rps) in rates.iter().enumerate() {
        let per_client = if smoke { 100 } else { 300 };
        let clients = if smoke { 2 } else { 4 };
        rows.push(open_loop(
            addr,
            clients,
            rps,
            per_client,
            1_000_000 * (i as u64 + 1),
        ));
    }

    // Server-side ground truth.
    let registry = handle.registry();
    let snapshot = registry.snapshot();
    let protocol_errors = snapshot
        .counter("server.protocol_errors_total")
        .unwrap_or(0);
    let report = handle.shutdown(true);

    for r in &rows {
        eprintln!(
            "{} (clients {}, target {} rps): {} reqs, {} resps, {} accepted, \
             {} shed, {} errors; {} req/s achieved, admission p50 {} us, \
             p99 {} us, max {} us",
            r.scenario,
            r.clients,
            r.target_rps,
            r.requests,
            r.responses,
            r.accepted,
            r.shed,
            r.errors,
            r.achieved_rps,
            r.p50_us,
            r.p99_us,
            r.max_us,
        );
    }
    eprintln!(
        "server: protocol errors {}, shed {}, admitted {}, drain complete {}",
        protocol_errors, report.shed_total, report.admitted_total, report.drain_complete
    );

    // The gate: no protocol errors, no lost responses, clean drain.
    assert_eq!(protocol_errors, 0, "server must count zero protocol errors");
    for r in &rows {
        assert_eq!(
            r.requests, r.responses,
            "{}: every request must get exactly one response",
            r.scenario
        );
        assert_eq!(
            r.errors, 0,
            "{}: typed errors in a clean workload",
            r.scenario
        );
    }
    assert!(report.drained && report.drain_complete, "drain must finish");

    let mut doc = BenchJson::new("serve", smoke);
    doc.field("server_protocol_errors", protocol_errors);
    doc.rows("rows", rows.iter().map(row_json));
    doc.write().expect("BENCH_serve.json writes");
}
