//! Wire-protocol robustness against a live server.
//!
//! Contract: every well-formed message type round-trips; every
//! adversarial frame (truncated, oversized length prefix, invalid
//! UTF-8, garbage JSON, unknown type) yields a typed error or a dropped
//! connection — never a panic, a hang, or a wedged accept loop.

mod common;

use std::net::Shutdown;
use std::time::{Duration, Instant};

use common::{start, Client};
use medea_server::{
    AdmissionConfig, ContainerSpec, FrameError, Request, Response, MAX_CONNECTIONS, MAX_FRAME_BYTES,
};

#[test]
fn every_message_type_round_trips_live() {
    let handle = start(8, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());

    // Place → accepted, id echoed.
    match c.place(1, "alice", 100, 2) {
        Response::Accepted {
            id,
            app,
            queue_depth,
        } => {
            assert_eq!(id, 1);
            assert_eq!(app, 100);
            assert!(queue_depth >= 1);
        }
        other => panic!("expected accepted, got {other:?}"),
    }

    // Query → app status (pending or placed depending on batcher timing).
    match c.query(2, 100) {
        Response::AppStatus { id, app, phase, .. } => {
            assert_eq!(id, 2);
            assert_eq!(app, 100);
            assert!(phase == "pending" || phase == "placed", "phase {phase}");
        }
        other => panic!("expected app status, got {other:?}"),
    }

    // Wait until placed, then the status carries the hosting nodes.
    let placed = common::await_phase(&mut c, 100, "placed", Duration::from_secs(10));
    match placed {
        Response::AppStatus { nodes, .. } => assert_eq!(nodes.len(), 2),
        other => panic!("expected app status, got {other:?}"),
    }

    // Status → cluster-wide counters.
    match c.call(&Request::Status { id: 3 }) {
        Response::Status { id, reply } => {
            assert_eq!(id, 3);
            assert_eq!(reply.deployed, 1);
            assert_eq!(reply.nodes_total, 8);
            assert_eq!(reply.admitted, 1);
            assert_eq!(reply.shed, 0);
        }
        other => panic!("expected status, got {other:?}"),
    }

    // Metrics → a JSON body containing the server series.
    match c.call(&Request::Metrics { id: 4 }) {
        Response::Metrics { id, body } => {
            assert_eq!(id, 4);
            assert!(body.starts_with('{'), "metrics body: {body}");
            assert!(body.contains("server.requests_total"));
        }
        other => panic!("expected metrics, got {other:?}"),
    }

    // Release → released; the app then queries as released.
    match c.call(&Request::Release {
        id: 5,
        tenant: "alice".to_string(),
        app: 100,
    }) {
        Response::Released { id, app } => {
            assert_eq!(id, 5);
            assert_eq!(app, 100);
        }
        other => panic!("expected released, got {other:?}"),
    }
    match c.query(6, 100) {
        Response::AppStatus { phase, .. } => assert_eq!(phase, "released"),
        other => panic!("expected app status, got {other:?}"),
    }

    // Shutdown → ack, then a graceful drain.
    match c.call(&Request::Shutdown { id: 7 }) {
        Response::ShutdownAck { id } => assert_eq!(id, 7),
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    let report = handle.shutdown(true);
    assert!(report.drained);
    assert!(report.drain_complete);
}

#[test]
fn semantic_errors_are_typed_and_keep_the_connection() {
    let handle = start(4, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());

    // Unknown app.
    match c.query(1, 999) {
        Response::AppStatus { phase, .. } => assert_eq!(phase, "unknown"),
        other => panic!("expected app status, got {other:?}"),
    }
    // Release of an app that was never placed.
    match c.call(&Request::Release {
        id: 2,
        tenant: "alice".to_string(),
        app: 999,
    }) {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 2);
            assert_eq!(code, "unknown_app");
        }
        other => panic!("expected error, got {other:?}"),
    }
    // Duplicate app id.
    assert!(matches!(
        c.place(3, "alice", 7, 1),
        Response::Accepted { .. }
    ));
    match c.place(4, "bob", 7, 1) {
        Response::Error { code, .. } => assert_eq!(code, "duplicate_app"),
        other => panic!("expected error, got {other:?}"),
    }
    // Release under the wrong tenant.
    match c.call(&Request::Release {
        id: 5,
        tenant: "bob".to_string(),
        app: 7,
    }) {
        Response::Error { code, .. } => assert_eq!(code, "wrong_tenant"),
        other => panic!("expected error, got {other:?}"),
    }
    // Unparseable constraint syntax.
    match c.call(&Request::Place {
        id: 6,
        tenant: "alice".to_string(),
        app: 8,
        containers: vec![ContainerSpec {
            count: 1,
            memory_mb: 512,
            vcores: 1,
            tags: vec!["t".to_string()],
        }],
        constraints: vec!["this is not a constraint".to_string()],
    }) {
        Response::Error { code, .. } => assert_eq!(code, "bad_constraint"),
        other => panic!("expected error, got {other:?}"),
    }
    // The connection survived all of the above.
    assert!(matches!(
        c.place(9, "alice", 20, 1),
        Response::Accepted { .. }
    ));
    handle.shutdown(true);
}

/// A place the scheduler rejects after the `accepted` reply (constraint
/// over a node group the cluster does not have) leaves the id terminal,
/// not active: the client resubmits the corrected request under it.
#[test]
fn rejected_app_can_be_resubmitted_under_the_same_id() {
    let handle = start(4, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());
    let place = |c: &mut Client, id: u64, group: &str| {
        c.call(&Request::Place {
            id,
            tenant: "alice".to_string(),
            app: 30,
            containers: vec![ContainerSpec {
                count: 2,
                memory_mb: 512,
                vcores: 1,
                tags: vec!["w".to_string()],
            }],
            constraints: vec![format!("{{w, {{w, 0, 0}}, {group}}}")],
        })
    };

    // Syntactically fine, so admission accepts; the scheduler rejects.
    assert!(matches!(
        place(&mut c, 1, "no_such_group"),
        Response::Accepted { .. }
    ));
    common::await_phase(&mut c, 30, "rejected", Duration::from_secs(10));

    match place(&mut c, 2, "node") {
        Response::Accepted { id, app, .. } => assert_eq!((id, app), (2, 30)),
        other => panic!("resubmission after rejection must be accepted, got {other:?}"),
    }
    match common::await_phase(&mut c, 30, "placed", Duration::from_secs(10)) {
        Response::AppStatus { nodes, .. } => assert_eq!(nodes.len(), 2),
        other => panic!("expected app status, got {other:?}"),
    }
    handle.shutdown(true);
}

#[test]
fn garbage_json_and_bad_utf8_get_typed_errors_without_dropping() {
    let handle = start(4, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());

    // Garbage JSON.
    c.send_raw(&frame(b"{{{{ not json"));
    match c.recv() {
        Response::Error { code, .. } => assert_eq!(code, "bad_json"),
        other => panic!("expected error, got {other:?}"),
    }
    // Valid JSON, unknown message type.
    c.send_raw(&frame(br#"{"type":"frobnicate","id":3}"#));
    match c.recv() {
        Response::Error { code, .. } => assert_eq!(code, "bad_request"),
        other => panic!("expected error, got {other:?}"),
    }
    // Valid JSON, missing required fields.
    c.send_raw(&frame(br#"{"type":"place","id":4}"#));
    assert!(matches!(c.recv(), Response::Error { .. }));
    // Invalid UTF-8 payload.
    c.send_raw(&frame(&[0xff, 0xfe, 0x80, 0x80]));
    match c.recv() {
        Response::Error { code, .. } => assert_eq!(code, "bad_utf8"),
        other => panic!("expected error, got {other:?}"),
    }
    // Same connection still serves real traffic.
    assert!(matches!(
        c.place(5, "alice", 1, 1),
        Response::Accepted { .. }
    ));
    handle.shutdown(true);
}

#[test]
fn oversized_prefix_is_refused_before_allocation_and_drops_the_connection() {
    let handle = start(4, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());

    let huge = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes();
    c.send_raw(&huge);
    match c.recv() {
        Response::Error { code, .. } => assert_eq!(code, "frame_too_large"),
        other => panic!("expected error, got {other:?}"),
    }
    // The server closes after losing frame sync.
    match c.try_recv(Duration::from_secs(5)) {
        Err(FrameError::Closed) | Err(FrameError::Io(_)) => {}
        other => panic!("expected dropped connection, got {other:?}"),
    }
    // The accept loop is unharmed: a fresh connection works.
    let mut c2 = Client::connect(handle.addr());
    assert!(matches!(
        c2.place(1, "alice", 1, 1),
        Response::Accepted { .. }
    ));
    handle.shutdown(true);
}

#[test]
fn truncated_frame_drops_the_connection_but_not_the_server() {
    let handle = start(4, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());

    // Advertise 64 bytes, deliver 10, then half-close.
    c.send_raw(&64u32.to_be_bytes());
    c.send_raw(b"0123456789");
    c.stream.shutdown(Shutdown::Write).expect("half-close");
    match c.try_recv(Duration::from_secs(5)) {
        Err(FrameError::Closed) | Err(FrameError::Io(_)) => {}
        Ok(resp) => panic!("expected dropped connection, got {resp:?}"),
        Err(e) => panic!("unexpected frame error {e}"),
    }

    let mut c2 = Client::connect(handle.addr());
    assert!(matches!(
        c2.place(1, "alice", 1, 1),
        Response::Accepted { .. }
    ));
    handle.shutdown(true);
}

#[test]
fn scale_and_upgrade_round_trip_live() {
    let handle = start(8, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());

    assert!(matches!(
        c.place(1, "alice", 100, 2),
        Response::Accepted { .. }
    ));
    common::await_phase(&mut c, 100, "placed", Duration::from_secs(10));

    // Scale 2 → 4: acked immediately, converges to `steady` with four
    // hosting nodes.
    match c.call(&Request::Scale {
        id: 2,
        tenant: "alice".to_string(),
        app: 100,
        replicas: 4,
    }) {
        Response::ScaleAck { id, app, replicas } => {
            assert_eq!((id, app, replicas), (2, 100, 4));
        }
        other => panic!("expected scale ack, got {other:?}"),
    }
    match common::await_phase(&mut c, 100, "steady", Duration::from_secs(10)) {
        Response::AppStatus { nodes, .. } => assert_eq!(nodes.len(), 4),
        other => panic!("expected app status, got {other:?}"),
    }

    // Rolling upgrade to version 2: acked, then the reconciler walks
    // the upgrade domains until all replicas are replaced.
    match c.call(&Request::Upgrade {
        id: 3,
        tenant: "alice".to_string(),
        app: 100,
        version: 2,
    }) {
        Response::UpgradeAck { id, app, version } => {
            assert_eq!((id, app, version), (3, 100, 2));
        }
        other => panic!("expected upgrade ack, got {other:?}"),
    }
    match common::await_phase(&mut c, 100, "steady", Duration::from_secs(30)) {
        Response::AppStatus { nodes, .. } => assert_eq!(nodes.len(), 4),
        other => panic!("expected app status, got {other:?}"),
    }

    handle.shutdown(true);
}

#[test]
fn malformed_spec_frames_yield_typed_errors_and_keep_the_connection() {
    let handle = start(4, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());

    assert!(matches!(
        c.place(1, "alice", 50, 1),
        Response::Accepted { .. }
    ));

    // Scale of an app that was never placed.
    match c.call(&Request::Scale {
        id: 2,
        tenant: "alice".to_string(),
        app: 999,
        replicas: 3,
    }) {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 2);
            assert_eq!(code, "unknown_app");
        }
        other => panic!("expected error, got {other:?}"),
    }
    // Upgrade under the wrong tenant.
    match c.call(&Request::Upgrade {
        id: 3,
        tenant: "mallory".to_string(),
        app: 50,
        version: 2,
    }) {
        Response::Error { code, .. } => assert_eq!(code, "wrong_tenant"),
        other => panic!("expected error, got {other:?}"),
    }
    // Malformed spec frames: missing replicas, version 0, replicas over
    // the cap, non-numeric replicas — each a typed error on the same
    // connection, never a drop.
    for payload in [
        br#"{"type":"scale","id":4,"tenant":"alice","app":50}"#.as_slice(),
        br#"{"type":"upgrade","id":5,"tenant":"alice","app":50,"version":0}"#.as_slice(),
        br#"{"type":"scale","id":6,"tenant":"alice","app":50,"replicas":5000}"#.as_slice(),
        br#"{"type":"scale","id":7,"tenant":"alice","app":50,"replicas":"six"}"#.as_slice(),
    ] {
        c.send_raw(&frame(payload));
        match c.recv() {
            Response::Error { code, .. } => assert_eq!(code, "bad_request"),
            other => panic!("expected error, got {other:?}"),
        }
    }
    // The connection survived all of the above and still serves real
    // spec traffic.
    match c.call(&Request::Scale {
        id: 8,
        tenant: "alice".to_string(),
        app: 50,
        replicas: 2,
    }) {
        Response::ScaleAck { .. } => {}
        other => panic!("expected scale ack, got {other:?}"),
    }
    handle.shutdown(true);
}

/// One maximum-size frame of `[` once overflowed the connection thread's
/// stack inside the parser and aborted the whole daemon. It is a parse
/// error like any other, and the connection keeps serving.
#[test]
fn a_frame_of_open_brackets_is_bad_json_not_a_dead_server() {
    let handle = start(4, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());

    c.send_raw(&frame(&vec![b'['; MAX_FRAME_BYTES]));
    match c.recv() {
        Response::Error { code, .. } => assert_eq!(code, "bad_json"),
        other => panic!("expected error, got {other:?}"),
    }
    assert!(matches!(
        c.place(1, "alice", 1, 1),
        Response::Accepted { .. }
    ));
    handle.shutdown(true);
}

/// Frames raw bytes with the 4-byte big-endian length prefix.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Constraints with multi-byte chars get typed replies on a connection
/// that keeps serving, and closed connections return their slots: a
/// thread that died on such a frame and kept its slot would, after as
/// many frames as the connection cap, lock every client out.
#[test]
fn non_ascii_constraints_get_typed_replies_and_return_their_slots() {
    let handle = start(4, AdmissionConfig::default());
    let place = |id: u64, constraint: &str| Request::Place {
        id,
        tenant: "alice".to_string(),
        app: id,
        containers: vec![ContainerSpec {
            count: 1,
            memory_mb: 1024,
            vcores: 1,
            tags: vec!["storm".to_string()],
        }],
        constraints: vec![constraint.to_string()],
    };
    let broken = "{storm∨, {hb, 1, ∞}, node}";
    let mut c = Client::connect(handle.addr());
    for (id, constraint) in [
        (1, "{stormé, {hb, 1, ∞}, node}"),
        (2, "{storm,{hb∧mem,1,∞},node}"),
    ] {
        match c.call(&place(id, constraint)) {
            Response::Accepted { app, .. } => assert_eq!(app, id),
            other => panic!("{constraint}: expected accepted, got {other:?}"),
        }
    }
    match c.call(&place(3, broken)) {
        Response::Error { code, .. } => assert_eq!(code, "bad_constraint"),
        other => panic!("expected error, got {other:?}"),
    }
    assert!(matches!(
        c.call(&Request::Status { id: 4 }),
        Response::Status { .. }
    ));
    drop(c);

    for id in 10..=10 + MAX_CONNECTIONS as u64 {
        let mut c = Client::connect(handle.addr());
        match c.call(&place(id, broken)) {
            Response::Error { code, .. } => assert_eq!(code, "bad_constraint"),
            other => panic!("connection {id}: expected error, got {other:?}"),
        }
    }
    // Every connection above is closed: its thread ends and frees its slot.
    let registry = handle.registry();
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry.snapshot().gauge("server.connections") != Some(0) {
        assert!(
            Instant::now() < deadline,
            "connection slots never came back"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut fresh = Client::connect(handle.addr());
    assert!(matches!(
        fresh.call(&Request::Status { id: 5 }),
        Response::Status { .. }
    ));
    handle.shutdown(true);
}
