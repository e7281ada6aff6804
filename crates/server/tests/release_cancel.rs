//! Regression suite for the release/cancel path: an app released at any
//! point of its lifecycle — waiting in the admission queue, pending
//! inside the scheduler, or fully placed — must never end up holding
//! containers afterwards, and a release racing the batcher must not
//! resurrect the app.

mod common;

use std::time::{Duration, Instant};

use common::{await_phase, parked, start, Client, PARK_APPS};
use medea_server::{AdmissionConfig, Request, Response};

/// The original leak: place → accepted → release while the request is
/// still waiting for its batch. The release must pull the entry out of
/// the admission queue so the scheduler never sees it; a later batch
/// must not place it.
#[test]
fn release_while_queued_never_places() {
    let handle = start(8, AdmissionConfig::default());
    let (registry, sched) = (handle.registry(), handle.scheduler());
    let mut c = Client::connect(handle.addr());

    // The batcher is parked, so the place request is still waiting for
    // its batch when the release lands (the entry is removed
    // synchronously before the reply).
    parked(&registry, &sched, &mut c, |c| {
        assert!(matches!(
            c.place(1, "t", 1, 3),
            Response::Accepted { app: 1, .. }
        ));
        assert!(matches!(
            c.call(&Request::Release {
                id: 2,
                tenant: "t".into(),
                app: 1
            }),
            Response::Released { app: 1, .. }
        ));
    });

    // A second app rides the normal path to prove batches still flow.
    assert!(matches!(
        c.place(3, "t", 2, 2),
        Response::Accepted { app: 2, .. }
    ));
    await_phase(&mut c, 2, "placed", Duration::from_secs(10));

    // The released app never reached the scheduler: no containers, no
    // deployment, phase stays `released`.
    let resp = c.query(4, 1);
    match resp {
        Response::AppStatus { phase, nodes, .. } => {
            assert_eq!(phase, "released");
            assert!(nodes.is_empty(), "released app must hold no containers");
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    match c.call(&Request::Status { id: 5 }) {
        Response::Status { reply, .. } => {
            let parked = PARK_APPS as u64;
            assert_eq!(reply.deployed, 1 + parked, "app 1 never deploys");
            assert_eq!(reply.containers, 2 + parked, "app 1 holds no containers");
            assert_eq!(reply.queue_depth, 0);
        }
        other => panic!("unexpected reply: {other:?}"),
    }

    let report = handle.shutdown(true);
    assert!(report.drain_complete);
    assert_eq!(report.final_queue_depth, 0);
}

/// Release after the app reached the scheduler but while it is still
/// pending (cluster full): the cancel must purge the scheduler queue,
/// not just flip the wire-visible phase.
#[test]
fn release_while_pending_purges_scheduler_queue() {
    let handle = start(
        2,
        AdmissionConfig {
            batch_max_size: 4,
            batch_max_wait_ms: 5,
            ..AdmissionConfig::default()
        },
    );
    let mut c = Client::connect(handle.addr());

    // Fill the cluster: 2 nodes x 16 vcores, one vcore per container.
    assert!(matches!(
        c.place(1, "t", 1, 32),
        Response::Accepted { app: 1, .. }
    ));
    await_phase(&mut c, 1, "placed", Duration::from_secs(10));

    // No room left: app 2 sticks in the scheduler's pending queue.
    assert!(matches!(
        c.place(2, "t", 2, 8),
        Response::Accepted { app: 2, .. }
    ));
    await_phase(&mut c, 2, "pending", Duration::from_secs(10));

    assert!(matches!(
        c.call(&Request::Release {
            id: 3,
            tenant: "t".into(),
            app: 2
        }),
        Response::Released { app: 2, .. }
    ));

    // The cancel drains through the batcher; the scheduler queue must
    // empty without app 2 ever being placed.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match c.call(&Request::Status { id: 4 }) {
            Response::Status { reply, .. } => {
                if reply.queue_depth == 0 {
                    assert_eq!(reply.containers, 32, "only app 1's containers remain");
                    break;
                }
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        assert!(
            Instant::now() < deadline,
            "scheduler queue never drained after release"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    match c.query(5, 2) {
        Response::AppStatus { phase, nodes, .. } => {
            assert_eq!(phase, "released");
            assert!(nodes.is_empty());
        }
        other => panic!("unexpected reply: {other:?}"),
    }

    let report = handle.shutdown(true);
    assert!(report.drain_complete);
    assert_eq!(report.final_queue_depth, 0);
}

/// Releasing a placed app still frees its containers (the pre-existing
/// happy path must survive the cancel rework), and a released id can be
/// reused for a fresh placement.
#[test]
fn release_placed_then_reuse_id() {
    let handle = start(8, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());

    assert!(matches!(
        c.place(1, "t", 7, 4),
        Response::Accepted { app: 7, .. }
    ));
    await_phase(&mut c, 7, "placed", Duration::from_secs(10));
    assert!(matches!(
        c.call(&Request::Release {
            id: 2,
            tenant: "t".into(),
            app: 7
        }),
        Response::Released { app: 7, .. }
    ));

    // Containers are freed (release is synchronous in the batcher; poll
    // for the board to catch up).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match c.call(&Request::Status { id: 3 }) {
            Response::Status { reply, .. } if reply.containers == 0 => break,
            Response::Status { .. } => {}
            other => panic!("unexpected reply: {other:?}"),
        }
        assert!(Instant::now() < deadline, "containers never freed");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The same app id places again from scratch.
    assert!(matches!(
        c.place(4, "t", 7, 2),
        Response::Accepted { app: 7, .. }
    ));
    await_phase(&mut c, 7, "placed", Duration::from_secs(10));

    let report = handle.shutdown(true);
    assert!(report.drain_complete);
}

/// Double release: the second one must answer `unknown_app` (typed
/// error), not hang or corrupt state.
#[test]
fn double_release_is_typed_error() {
    let handle = start(8, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());

    assert!(matches!(
        c.place(1, "t", 1, 2),
        Response::Accepted { app: 1, .. }
    ));
    await_phase(&mut c, 1, "placed", Duration::from_secs(10));
    assert!(matches!(
        c.call(&Request::Release {
            id: 2,
            tenant: "t".into(),
            app: 1
        }),
        Response::Released { .. }
    ));
    match c.call(&Request::Release {
        id: 3,
        tenant: "t".into(),
        app: 1,
    }) {
        Response::Error { code, .. } => assert_eq!(code, "unknown_app"),
        other => panic!("expected typed error, got {other:?}"),
    }

    handle.shutdown(true);
}
