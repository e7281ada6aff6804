//! Shared client/server harness for the `medea-server` integration
//! suites: a scheduler factory, a server launcher binding port 0, and a
//! blocking wire-protocol client built on the public framing API.

#![allow(dead_code)]

pub mod board;
pub mod served;

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use medea_cluster::{ClusterState, Resources};
use medea_core::{LraAlgorithm, MedeaScheduler, SharedScheduler};
use medea_obs::MetricsRegistry;
use medea_server::{
    write_frame, AdmissionConfig, ContainerSpec, FrameError, FrameReader, MedeaServer, Request,
    Response, ServerConfig, ServerHandle, MAX_FRAME_BYTES,
};

/// A homogeneous scheduler sized for tests.
pub fn scheduler(nodes: usize) -> MedeaScheduler {
    let cluster =
        ClusterState::homogeneous(nodes, Resources::new(16 * 1024, 16), (nodes / 4).max(1));
    MedeaScheduler::new(cluster, LraAlgorithm::NodeCandidates, 10)
}

/// Starts a server on port 0 with the given admission config.
pub fn start(nodes: usize, admission: AdmissionConfig) -> ServerHandle {
    start_with(scheduler(nodes), admission)
}

/// Starts a server around a prepared scheduler (e.g. with a journal).
pub fn start_with(m: MedeaScheduler, admission: AdmissionConfig) -> ServerHandle {
    let cfg = ServerConfig {
        admission,
        ..ServerConfig::default()
    };
    MedeaServer::start(m, cfg, MetricsRegistry::new()).expect("bind server")
}

/// A blocking test client over one connection.
pub struct Client {
    pub stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .expect("read timeout");
        let _ = stream.set_nodelay(true);
        Client {
            stream,
            reader: FrameReader::new(MAX_FRAME_BYTES),
        }
    }

    /// A second handle on the same connection with its own read buffer,
    /// for a thread that drains replies while this one writes.
    pub fn try_clone(&self) -> Client {
        Client {
            stream: self.stream.try_clone().expect("clone stream"),
            reader: FrameReader::new(MAX_FRAME_BYTES),
        }
    }

    /// Sends one request frame.
    pub fn send(&mut self, req: &Request) {
        write_frame(&mut self.stream, req.encode().as_bytes()).expect("send frame");
    }

    /// Sends raw bytes, bypassing the codec (for adversarial frames).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        use std::io::Write as _;
        self.stream.write_all(bytes).expect("send raw");
        self.stream.flush().expect("flush raw");
    }

    /// Receives one response, panicking after 10s.
    pub fn recv(&mut self) -> Response {
        match self.try_recv(Duration::from_secs(10)) {
            Ok(r) => r,
            Err(e) => panic!("connection error while waiting for response: {e}"),
        }
    }

    /// Receives one response within `budget`, surfacing frame errors
    /// (e.g. the server dropping the connection).
    pub fn try_recv(&mut self, budget: Duration) -> Result<Response, FrameError> {
        let deadline = Instant::now() + budget;
        loop {
            match self.reader.poll(&mut self.stream) {
                Ok(Some(payload)) => {
                    let text = std::str::from_utf8(&payload).expect("reply is UTF-8");
                    return Ok(Response::decode(text).expect("reply decodes"));
                }
                Ok(None) => {
                    if Instant::now() >= deadline {
                        panic!("timed out waiting for a response");
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Request/response round trip.
    pub fn call(&mut self, req: &Request) -> Response {
        self.send(req);
        self.recv()
    }

    /// Convenience place request: `count` uniform containers.
    pub fn place(&mut self, id: u64, tenant: &str, app: u64, count: u32) -> Response {
        self.call(&Request::Place {
            id,
            tenant: tenant.to_string(),
            app,
            containers: vec![ContainerSpec {
                count,
                memory_mb: 1024,
                vcores: 1,
                tags: vec![format!("app{app}")],
            }],
            constraints: vec![],
        })
    }

    /// Convenience query.
    pub fn query(&mut self, id: u64, app: u64) -> Response {
        self.call(&Request::Query { id, app })
    }
}

/// Polls the server until `app` reaches `phase` (placement is async).
pub fn await_phase(client: &mut Client, app: u64, phase: &str, budget: Duration) -> Response {
    let deadline = Instant::now() + budget;
    loop {
        let resp = client.query(9_000_000 + app, app);
        if let Response::AppStatus { phase: p, .. } = &resp {
            if p == phase {
                return resp;
            }
        }
        if Instant::now() >= deadline {
            panic!("app {app} never reached phase {phase}; last: {resp:?}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Place requests [`parked`] admits and deploys, one container each.
pub const PARK_APPS: usize = 2;
/// The first park request's app; the second is the next id.
const PARK_APP: u64 = 90_001;

/// Batches closed so far, under any of the four close counters.
fn closes(registry: &MetricsRegistry) -> u64 {
    let snap = registry.snapshot();
    ["size", "quiet", "deadline", "forced"]
        .iter()
        .map(|r| {
            snap.counter(&format!("server.batch_close_{r}_total"))
                .unwrap_or(0)
        })
        .sum()
}

/// Runs `f` while the server's batcher is parked inside a cycle, so every
/// request admitted meanwhile stays in the admission queue: a batch
/// closes at most `QUIET_MAX_US` after its last arrival, so no config
/// holds one there. A first request, placed and awaited as tenant
/// `park`, shows the batcher is serving; then, with the scheduler's
/// writer lock held, a second is taken (its close is counted before its
/// cycle asks for the lock) and the batcher waits on the lock until `f`
/// returns. Both are admitted and deployed ([`PARK_APPS`]).
pub fn parked<R>(
    registry: &MetricsRegistry,
    sched: &SharedScheduler,
    client: &mut Client,
    f: impl FnOnce(&mut Client) -> R,
) -> R {
    assert!(matches!(
        client.place(PARK_APP, "park", PARK_APP, 1),
        Response::Accepted { .. }
    ));
    await_phase(client, PARK_APP, "placed", Duration::from_secs(10));
    sched.with_writer(|_| {
        let before = closes(registry);
        assert!(matches!(
            client.place(PARK_APP + 1, "park", PARK_APP + 1, 1),
            Response::Accepted { .. }
        ));
        let deadline = Instant::now() + Duration::from_secs(10);
        while closes(registry) == before {
            assert!(Instant::now() < deadline, "the batcher never took it");
            std::thread::sleep(Duration::from_millis(1));
        }
        f(client)
    })
}
