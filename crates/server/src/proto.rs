//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is one frame: a 4-byte big-endian length prefix followed
//! by that many bytes of UTF-8 JSON. The JSON subset and the codec are
//! the journal's (`medea_journal::json_codec!`): objects, arrays,
//! strings, booleans, `null`, and unsigned integers — no floats, so ids
//! round-trip exactly — nested at most `medea_journal::MAX_DEPTH` deep.
//!
//! Robustness contract (enforced by `tests/protocol.rs`): a malformed
//! frame never panics the server and never blocks the accept loop.
//! Recoverable violations (garbage JSON, unknown type, missing fields,
//! invalid UTF-8) get a typed [`Response::Error`] on the same connection;
//! violations that lose frame sync (truncated frame, oversized length
//! prefix) get a best-effort error and the connection is dropped.
//!
//! Every request carries a client-chosen `id`, echoed verbatim in the
//! reply, so clients may pipeline requests and match responses.

use std::io::{self, Read, Write};

use medea_journal::{encode, json_codec, FromJson, JsonValue};

/// Default cap on one frame's payload size. An advertised length above
/// the cap is rejected *before* any allocation, so a hostile prefix
/// cannot balloon memory.
pub const MAX_FRAME_BYTES: usize = 256 * 1024;

/// Upper bound on containers in one place request (64 LRAs × 8
/// containers is far above the paper's batch sizes; anything larger is a
/// client bug or an attack).
pub const MAX_CONTAINERS_PER_REQUEST: usize = 4096;

/// Errors surfaced by the framing layer.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary (client closed).
    Closed,
    /// EOF in the middle of a frame: sync lost, connection unusable.
    Truncated,
    /// Advertised length exceeds the frame cap.
    TooLarge {
        /// The advertised payload length.
        advertised: u64,
        /// The configured cap.
        max: usize,
    },
    /// Underlying transport error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::TooLarge { advertised, max } => {
                write!(f, "frame of {advertised} bytes exceeds cap {max}")
            }
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Writes one frame and flushes. Prefix and payload leave in a single
/// `write_all`: on a `TCP_NODELAY` socket two writes are two segments
/// and two wake-ups of the peer's reader.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Incremental frame reader that tolerates read timeouts.
///
/// [`FrameReader::poll`] reads whatever the transport holds into one
/// buffer and cuts frames out of it — one `read` per frame when the
/// frame is whole in the socket, none when it arrived behind the last
/// one. It returns `Ok(None)` on a read timeout
/// (`WouldBlock`/`TimedOut`), keeping the bytes it has so the caller can
/// re-poll after checking its shutdown flag — a connection thread is
/// therefore never stuck in a blocking read it cannot leave.
#[derive(Debug)]
pub struct FrameReader {
    max: usize,
    /// `buf[..held]` are bytes read and not yet handed out — zero or more
    /// whole frames, then at most one partial frame; the rest is room
    /// for the next `read`.
    buf: Vec<u8>,
    held: usize,
}

/// Least room offered to a `read`.
const READ_CHUNK: usize = 4096;

impl FrameReader {
    /// Creates a reader enforcing the given frame cap.
    pub fn new(max: usize) -> Self {
        FrameReader {
            max,
            buf: Vec::new(),
            held: 0,
        }
    }

    /// Whether bytes of an undelivered frame are held (EOF now would be
    /// `Truncated` once the whole frames before it are delivered).
    pub fn mid_frame(&self) -> bool {
        self.held > 0
    }

    /// Advances the read state. Returns a complete payload, `Ok(None)`
    /// on timeout (poll again), or a terminal [`FrameError`].
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
        loop {
            let pending = &self.buf[..self.held];
            if let Some(prefix) = pending.first_chunk::<4>() {
                let len = u32::from_be_bytes(*prefix) as usize;
                if len > self.max {
                    return Err(FrameError::TooLarge {
                        advertised: len as u64,
                        max: self.max,
                    });
                }
                if let Some(payload) = pending.get(4..4 + len) {
                    let payload = payload.to_vec();
                    self.buf.copy_within(4 + len..self.held, 0);
                    self.held -= 4 + len;
                    return Ok(Some(payload));
                }
            }
            if self.buf.len() < self.held + READ_CHUNK {
                self.buf.resize(self.held + READ_CHUNK, 0);
            }
            match r.read(&mut self.buf[self.held..]) {
                Ok(0) if self.held == 0 => return Err(FrameError::Closed),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.held += n,
                Err(e) => return map_read_err(e),
            }
        }
    }
}

fn map_read_err(e: io::Error) -> Result<Option<Vec<u8>>, FrameError> {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Ok(None),
        io::ErrorKind::Interrupted => Ok(None),
        _ => Err(FrameError::Io(e)),
    }
}

/// Decode failure for a well-framed payload (recoverable: the server
/// answers with a typed error and keeps the connection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable error code (`bad_utf8`, `bad_json`, `bad_request`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

/// One container group of a place request: `count` identical containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerSpec {
    /// Number of identical containers.
    pub count: u32,
    /// Memory per container, MB.
    pub memory_mb: u64,
    /// Vcores per container.
    pub vcores: u32,
    /// Tags carried by each container.
    pub tags: Vec<String>,
}

json_codec! { struct ContainerSpec {
    count: "count", memory_mb: "memory_mb", vcores: "vcores", tags: "tags" = [],
} }

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit an LRA for placement. Answered immediately with
    /// [`Response::Accepted`] or [`Response::Overloaded`]; placement
    /// itself is asynchronous (poll with [`Request::Query`]).
    Place {
        /// Request id, echoed in the reply.
        id: u64,
        /// Tenant for fairness accounting.
        tenant: String,
        /// Application id (client-assigned, unique while active).
        app: u64,
        /// Container groups.
        containers: Vec<ContainerSpec>,
        /// Constraints in the paper's syntax (§4.2), parsed server-side.
        constraints: Vec<String>,
    },
    /// Tear down a placed (or pending) application.
    Release {
        /// Request id.
        id: u64,
        /// Tenant (must match the placing tenant).
        tenant: String,
        /// Application to release.
        app: u64,
    },
    /// Set the desired replica count of an active application. Answered
    /// immediately with [`Response::ScaleAck`]; the lifecycle reconciler
    /// scales toward the new count asynchronously (poll with
    /// [`Request::Query`] — the phase reports `scaling` until the count
    /// is met).
    Scale {
        /// Request id.
        id: u64,
        /// Tenant (must match the placing tenant).
        tenant: String,
        /// Application to scale.
        app: u64,
        /// Desired replica count (0 drains the app; capped at
        /// [`MAX_CONTAINERS_PER_REQUEST`]).
        replicas: u64,
    },
    /// Set the desired version of an active application. Answered
    /// immediately with [`Response::UpgradeAck`]; the reconciler rolls
    /// the upgrade one upgrade domain at a time under the app's
    /// disruption budget.
    Upgrade {
        /// Request id.
        id: u64,
        /// Tenant (must match the placing tenant).
        tenant: String,
        /// Application to upgrade.
        app: u64,
        /// Desired version (must be ≥ 1).
        version: u64,
    },
    /// Ask for an application's deployment phase.
    Query {
        /// Request id.
        id: u64,
        /// Application queried.
        app: u64,
    },
    /// Fetch the `medea-obs` metrics snapshot.
    Metrics {
        /// Request id.
        id: u64,
    },
    /// Fetch server/ledger status counters.
    Status {
        /// Request id.
        id: u64,
    },
    /// Ask the server to drain and shut down.
    Shutdown {
        /// Request id.
        id: u64,
    },
}

impl Request {
    /// The request id (echoed in every reply).
    pub fn id(&self) -> u64 {
        match self {
            Request::Place { id, .. }
            | Request::Release { id, .. }
            | Request::Scale { id, .. }
            | Request::Upgrade { id, .. }
            | Request::Query { id, .. }
            | Request::Metrics { id }
            | Request::Status { id }
            | Request::Shutdown { id } => *id,
        }
    }

    /// Serializes to a JSON payload (no frame prefix).
    pub fn encode(&self) -> String {
        encode(self)
    }

    /// Parses a payload. `payload` must already be UTF-8 (the transport
    /// layer maps invalid UTF-8 to a `bad_utf8` error itself).
    pub fn decode(payload: &str) -> Result<Request, ProtoError> {
        let req = decode(payload)?;
        let cap = MAX_CONTAINERS_PER_REQUEST as u64;
        let refuse = |message| Err(ProtoError::new("bad_request", message));
        match &req {
            Request::Place { containers, .. } => {
                let total: u64 = containers.iter().map(|c| u64::from(c.count)).sum();
                if total == 0 {
                    return refuse("place request with zero containers".to_string());
                }
                if total > cap {
                    return refuse(format!("{total} containers exceeds per-request cap {cap}"));
                }
            }
            Request::Scale { replicas, .. } if *replicas > cap => {
                return refuse(format!("{replicas} replicas exceeds per-app cap {cap}"));
            }
            Request::Upgrade { version: 0, .. } => {
                return refuse("upgrade to version 0 (versions start at 1)".to_string());
            }
            _ => {}
        }
        Ok(req)
    }
}

json_codec! { enum Request {
    "place" => Place {
        id: "id", tenant: "tenant", app: "app", containers: "containers",
        constraints: "constraints" = [],
    },
    "release" => Release { id: "id", tenant: "tenant", app: "app", },
    "scale" => Scale { id: "id", tenant: "tenant", app: "app", replicas: "replicas", },
    "upgrade" => Upgrade { id: "id", tenant: "tenant", app: "app", version: "version", },
    "query" => Query { id: "id", app: "app", },
    "metrics" => Metrics { id: "id", },
    "status" => Status { id: "id", },
    "shutdown" => Shutdown { id: "id", },
} }

/// Parses a payload as a message: unparseable text is `bad_json`, a
/// document that is not a `T` is `bad_request`.
fn decode<T: FromJson>(payload: &str) -> Result<T, ProtoError> {
    JsonValue::parse(payload)
        .map_err(|e| ProtoError::new("bad_json", e))?
        .to()
        .map_err(|e| ProtoError::new("bad_request", e))
}

/// Ledger/status counters answered to a [`Request::Status`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusReply {
    /// LRAs deployed so far.
    pub deployed: u64,
    /// LRAs dropped after exhausting attempts.
    pub dropped: u64,
    /// Commit conflicts reconciled.
    pub conflicts: u64,
    /// Scheduling cycles run.
    pub cycles: u64,
    /// Current LRA queue depth inside the scheduler.
    pub queue_depth: u64,
    /// Live containers.
    pub containers: u64,
    /// Available / total nodes.
    pub nodes_available: u64,
    /// Total nodes.
    pub nodes_total: u64,
    /// Recovery ledger: containers lost to crashes.
    pub lost: u64,
    /// Recovery ledger: containers replaced.
    pub replaced: u64,
    /// Recovery ledger: containers given up on.
    pub unplaceable: u64,
    /// Recovery ledger: replacements still pending.
    pub pending_recovery: u64,
    /// Requests shed by admission control so far.
    pub shed: u64,
    /// Place requests admitted so far.
    pub admitted: u64,
}

json_codec! { struct StatusReply {
    deployed: "deployed", dropped: "dropped", conflicts: "conflicts", cycles: "cycles",
    queue_depth: "queue_depth", containers: "containers",
    nodes_available: "nodes_available", nodes_total: "nodes_total", lost: "lost",
    replaced: "replaced", unplaceable: "unplaceable", pending_recovery: "pending_recovery",
    shed: "shed", admitted: "admitted",
} }

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Place request admitted; placement proceeds asynchronously.
    Accepted {
        /// Echoed request id.
        id: u64,
        /// The admitted application.
        app: u64,
        /// Admission-queue depth after the enqueue.
        queue_depth: u64,
    },
    /// Place request shed by admission control — never a hang: the
    /// client learns immediately and may retry after `retry_after_ms`.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// Shed reason code (`queue_full`, `tenant_quota`,
        /// `shutting_down`, `server_busy`).
        reason: String,
        /// Suggested retry delay.
        retry_after_ms: u64,
    },
    /// Release accepted.
    Released {
        /// Echoed request id.
        id: u64,
        /// The released application.
        app: u64,
    },
    /// Scale accepted; the reconciler converges asynchronously.
    ScaleAck {
        /// Echoed request id.
        id: u64,
        /// The scaled application.
        app: u64,
        /// The new desired replica count.
        replicas: u64,
    },
    /// Upgrade accepted; the rolling upgrade proceeds asynchronously.
    UpgradeAck {
        /// Echoed request id.
        id: u64,
        /// The upgraded application.
        app: u64,
        /// The new desired version.
        version: u64,
    },
    /// Deployment phase of a queried application.
    AppStatus {
        /// Echoed request id.
        id: u64,
        /// The application.
        app: u64,
        /// `pending`, `placed`, `dropped`, `released`, or `unknown`;
        /// lifecycle-managed apps (after a `scale`/`upgrade`) report
        /// their lifecycle phase instead: `pending`, `scaling`,
        /// `steady`, `upgrading`, `draining`, or `retired`.
        phase: String,
        /// Hosting node per container when placed (empty otherwise).
        nodes: Vec<u32>,
        /// Placement attempts consumed (pending only).
        attempts: u32,
    },
    /// Metrics snapshot; `body` is the `medea-obs` snapshot JSON,
    /// carried as an opaque string (it contains floats, which the wire
    /// subset deliberately excludes).
    Metrics {
        /// Echoed request id.
        id: u64,
        /// Snapshot JSON.
        body: String,
    },
    /// Status counters.
    Status {
        /// Echoed request id.
        id: u64,
        /// The counters.
        reply: StatusReply,
    },
    /// Shutdown initiated.
    ShutdownAck {
        /// Echoed request id.
        id: u64,
    },
    /// Typed error. `id` is 0 when the request id could not be decoded.
    Error {
        /// Echoed request id (0 if unknown).
        id: u64,
        /// Stable error code.
        code: String,
        /// Detail message.
        message: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Accepted { id, .. }
            | Response::Overloaded { id, .. }
            | Response::Released { id, .. }
            | Response::ScaleAck { id, .. }
            | Response::UpgradeAck { id, .. }
            | Response::AppStatus { id, .. }
            | Response::Metrics { id, .. }
            | Response::Status { id, .. }
            | Response::ShutdownAck { id }
            | Response::Error { id, .. } => *id,
        }
    }

    /// Serializes to a JSON payload (no frame prefix).
    pub fn encode(&self) -> String {
        encode(self)
    }

    /// Parses a payload.
    pub fn decode(payload: &str) -> Result<Response, ProtoError> {
        decode(payload)
    }
}

json_codec! { enum Response {
    "accepted" => Accepted { id: "id", app: "app", queue_depth: "queue_depth", },
    "overloaded" => Overloaded { id: "id", reason: "reason", retry_after_ms: "retry_after_ms", },
    "released" => Released { id: "id", app: "app", },
    "scale_ack" => ScaleAck { id: "id", app: "app", replicas: "replicas", },
    "upgrade_ack" => UpgradeAck { id: "id", app: "app", version: "version", },
    "app_status" => AppStatus {
        id: "id", app: "app", phase: "phase", nodes: "nodes", attempts: "attempts",
    },
    "metrics" => Metrics { id: "id", body: "body", },
    "status" => Status { id: "id", ..reply },
    "shutdown_ack" => ShutdownAck { id: "id", },
    "error" => Error { id: "id", code: "code", message: "message", },
} }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"x\":1}").unwrap();
        assert_eq!(&buf[..4], &7u32.to_be_bytes());
        let mut r = FrameReader::new(MAX_FRAME_BYTES);
        let got = r.poll(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(got, b"{\"x\":1}");
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut r = FrameReader::new(1024);
        match r.poll(&mut buf.as_slice()) {
            Err(FrameError::TooLarge { advertised, max }) => {
                assert_eq!(advertised, u32::MAX as u64);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected_mid_prefix_and_mid_payload() {
        let mut r = FrameReader::new(1024);
        assert!(matches!(
            r.poll(&mut [0u8, 0].as_slice()),
            Err(FrameError::Truncated)
        ));
        let mut r = FrameReader::new(1024);
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(matches!(
            r.poll(&mut buf.as_slice()),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn clean_close_at_boundary() {
        let mut r = FrameReader::new(1024);
        assert!(matches!(
            r.poll(&mut [].as_slice()),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Place {
                id: 1,
                tenant: "acme \"quoted\"".to_string(),
                app: u64::MAX,
                containers: vec![ContainerSpec {
                    count: 3,
                    memory_mb: 2048,
                    vcores: 2,
                    tags: vec!["hb".to_string(), "mem\ncache".to_string()],
                }],
                constraints: vec!["{hb, {hb, 0, 1}, node}".to_string()],
            },
            Request::Release {
                id: 2,
                tenant: "t".to_string(),
                app: 9,
            },
            Request::Query { id: 3, app: 9 },
            Request::Metrics { id: 4 },
            Request::Status { id: 5 },
            Request::Shutdown { id: 6 },
            Request::Scale {
                id: 7,
                tenant: "acme".to_string(),
                app: 9,
                replicas: 12,
            },
            Request::Upgrade {
                id: 8,
                tenant: "acme".to_string(),
                app: 9,
                version: 3,
            },
        ];
        // Exact bytes, in case order: the wire format is a contract.
        let golden = [
            r#"{"type":"place","id":1,"tenant":"acme \"quoted\"","app":18446744073709551615,"containers":[{"count":3,"memory_mb":2048,"vcores":2,"tags":["hb","mem\ncache"]}],"constraints":["{hb, {hb, 0, 1}, node}"]}"#,
            r#"{"type":"release","id":2,"tenant":"t","app":9}"#,
            r#"{"type":"query","id":3,"app":9}"#,
            r#"{"type":"metrics","id":4}"#,
            r#"{"type":"status","id":5}"#,
            r#"{"type":"shutdown","id":6}"#,
            r#"{"type":"scale","id":7,"tenant":"acme","app":9,"replicas":12}"#,
            r#"{"type":"upgrade","id":8,"tenant":"acme","app":9,"version":3}"#,
        ];
        assert_eq!(reqs.len(), golden.len());
        for (req, golden) in reqs.into_iter().zip(golden) {
            let enc = req.encode();
            assert_eq!(enc, golden);
            assert_eq!(Request::decode(&enc).unwrap(), req, "payload: {enc}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::Accepted {
                id: 1,
                app: 2,
                queue_depth: 3,
            },
            Response::Overloaded {
                id: 2,
                reason: "queue_full".to_string(),
                retry_after_ms: 50,
            },
            Response::Released { id: 3, app: 4 },
            Response::ScaleAck {
                id: 3,
                app: 4,
                replicas: 16,
            },
            Response::UpgradeAck {
                id: 3,
                app: 4,
                version: 2,
            },
            Response::AppStatus {
                id: 4,
                app: 5,
                phase: "placed".to_string(),
                nodes: vec![0, 7, 7],
                attempts: 2,
            },
            Response::Metrics {
                id: 5,
                body: "{\"series\":[{\"p50\":1.5}]}".to_string(),
            },
            Response::Status {
                id: 6,
                reply: StatusReply {
                    deployed: 1,
                    lost: 2,
                    replaced: 1,
                    unplaceable: 1,
                    ..StatusReply::default()
                },
            },
            Response::ShutdownAck { id: 7 },
            Response::Error {
                id: 0,
                code: "bad_json".to_string(),
                message: "trailing garbage at byte 3".to_string(),
            },
        ];
        // Exact bytes, in case order: the wire format is a contract.
        let golden = [
            r#"{"type":"accepted","id":1,"app":2,"queue_depth":3}"#,
            r#"{"type":"overloaded","id":2,"reason":"queue_full","retry_after_ms":50}"#,
            r#"{"type":"released","id":3,"app":4}"#,
            r#"{"type":"scale_ack","id":3,"app":4,"replicas":16}"#,
            r#"{"type":"upgrade_ack","id":3,"app":4,"version":2}"#,
            r#"{"type":"app_status","id":4,"app":5,"phase":"placed","nodes":[0,7,7],"attempts":2}"#,
            r#"{"type":"metrics","id":5,"body":"{\"series\":[{\"p50\":1.5}]}"}"#,
            r#"{"type":"status","id":6,"deployed":1,"dropped":0,"conflicts":0,"cycles":0,"queue_depth":0,"containers":0,"nodes_available":0,"nodes_total":0,"lost":2,"replaced":1,"unplaceable":1,"pending_recovery":0,"shed":0,"admitted":0}"#,
            r#"{"type":"shutdown_ack","id":7}"#,
            r#"{"type":"error","id":0,"code":"bad_json","message":"trailing garbage at byte 3"}"#,
        ];
        assert_eq!(resps.len(), golden.len());
        for (resp, golden) in resps.into_iter().zip(golden) {
            let enc = resp.encode();
            assert_eq!(enc, golden);
            assert_eq!(Response::decode(&enc).unwrap(), resp, "payload: {enc}");
        }
    }

    #[test]
    fn garbage_and_missing_fields_are_typed_errors() {
        assert_eq!(Request::decode("not json").unwrap_err().code, "bad_json");
        assert_eq!(
            Request::decode("{\"type\":\"place\",\"id\":1}")
                .unwrap_err()
                .code,
            "bad_request"
        );
        assert_eq!(
            Request::decode("{\"type\":\"warp\",\"id\":1}")
                .unwrap_err()
                .code,
            "bad_request"
        );
        // Zero containers and oversized requests are rejected at decode.
        let empty = Request::Place {
            id: 1,
            tenant: "t".to_string(),
            app: 1,
            containers: vec![],
            constraints: vec![],
        };
        assert_eq!(
            Request::decode(&empty.encode()).unwrap_err().code,
            "bad_request"
        );
        let huge = Request::Place {
            id: 1,
            tenant: "t".to_string(),
            app: 1,
            containers: vec![ContainerSpec {
                count: u32::MAX,
                memory_mb: 1,
                vcores: 1,
                tags: vec![],
            }],
            constraints: vec![],
        };
        assert_eq!(
            Request::decode(&huge.encode()).unwrap_err().code,
            "bad_request"
        );
    }

    #[test]
    fn malformed_spec_frames_are_typed_errors() {
        // Missing the replica count / version entirely.
        assert_eq!(
            Request::decode(r#"{"type":"scale","id":1,"tenant":"t","app":2}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        assert_eq!(
            Request::decode(r#"{"type":"upgrade","id":1,"tenant":"t","app":2}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        // Replica count over the per-app cap.
        let over = MAX_CONTAINERS_PER_REQUEST as u64 + 1;
        assert_eq!(
            Request::decode(&format!(
                r#"{{"type":"scale","id":1,"tenant":"t","app":2,"replicas":{over}}}"#
            ))
            .unwrap_err()
            .code,
            "bad_request"
        );
        // Versions start at 1.
        assert_eq!(
            Request::decode(r#"{"type":"upgrade","id":1,"tenant":"t","app":2,"version":0}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        // Non-numeric spec fields.
        assert_eq!(
            Request::decode(r#"{"type":"scale","id":1,"tenant":"t","app":2,"replicas":"six"}"#)
                .unwrap_err()
                .code,
            "bad_request"
        );
        // At the cap is fine.
        let at_cap = format!(
            r#"{{"type":"scale","id":1,"tenant":"t","app":2,"replicas":{MAX_CONTAINERS_PER_REQUEST}}}"#
        );
        assert!(Request::decode(&at_cap).is_ok());
    }
}
