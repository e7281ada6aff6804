//! Durability across server shutdown: the graceful drain checkpoints
//! through `medea-journal` so a restarted scheduler passes the
//! work-preserving restart audit, and a crash mid-serve (no drain, no
//! final checkpoint) still restores exactly from the WAL tail.

mod common;

use std::time::Duration;

use common::{parked, start_with, Client, PARK_APPS};
use medea_cluster::ApplicationId;
use medea_core::{MedeaScheduler, NodeReport};
use medea_journal::{MemoryStorage, Wal};
use medea_server::{AdmissionConfig, Request, Response};

/// Ground-truth node reports from the scheduler's own state (every node
/// re-registers faithfully after the outage).
fn faithful_reports(m: &MedeaScheduler) -> Vec<NodeReport> {
    m.state()
        .node_ids()
        .map(|n| NodeReport {
            node: n,
            available: m.state().is_available(n),
            containers: m
                .state()
                .containers_on(n)
                .map(|c| c.to_vec())
                .unwrap_or_default(),
        })
        .collect()
}

fn journaled_server(store: &MemoryStorage) -> medea_server::ServerHandle {
    let mut m = common::scheduler(8);
    m.attach_journal(Wal::new(store.clone()), 64)
        .expect("attach journal");
    start_with(m, AdmissionConfig::default())
}

/// Serves a little traffic: places 4 apps, waits for placement,
/// releases one. Returns the surviving app ids.
fn serve_traffic(addr: std::net::SocketAddr) -> Vec<u64> {
    let mut c = Client::connect(addr);
    for app in 1..=4u64 {
        match c.place(app, "alice", app, 2) {
            Response::Accepted { .. } => {}
            other => panic!("expected accepted, got {other:?}"),
        }
    }
    for app in 1..=4u64 {
        common::await_phase(&mut c, app, "placed", Duration::from_secs(10));
    }
    match c.call(&Request::Release {
        id: 100,
        tenant: "alice".to_string(),
        app: 4,
    }) {
        Response::Released { .. } => {}
        other => panic!("expected released, got {other:?}"),
    }
    // The release is applied by the next batcher cycle; wait until the
    // published board reflects the freed containers so the pre-shutdown
    // digest is settled.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match c.call(&Request::Status { id: 101 }) {
            Response::Status { reply, .. } if reply.containers == 6 => break,
            Response::Status { .. } => {}
            other => panic!("expected status, got {other:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "release never reached the board"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    vec![1, 2, 3]
}

#[test]
fn graceful_drain_checkpoints_and_restart_audit_passes() {
    let store = MemoryStorage::new();
    let handle = journaled_server(&store);
    serve_traffic(handle.addr());

    let sched = handle.scheduler();
    let digest_before = sched.with_writer(|m| m.state().digest());
    let report = handle.shutdown(true);
    assert!(report.drained && report.drain_complete);
    assert!(report.checkpointed, "graceful drain must checkpoint");
    assert!(
        store.log_lines().is_empty(),
        "final checkpoint truncates the WAL tail"
    );
    assert!(store.checkpoint_body().is_some());

    // The RM restarts: same scheduler instance, state rebuilt from the
    // journal and reconciled against faithful node reports (PR 7 path).
    let restart = sched.with_writer(|m| {
        let reports = faithful_reports(m);
        m.restart(1000, &reports).expect("restart restores")
    });
    assert!(restart.restored_from_journal);
    assert_eq!(restart.phantom_containers_released, 0);
    assert_eq!(restart.unknown_containers_reported, 0);
    assert!(
        restart.audit_error.is_none(),
        "post-restart audit: {:?}",
        restart.audit_error
    );
    let digest_after = sched.with_writer(|m| m.state().digest());
    assert_eq!(digest_before, digest_after, "state survived the restart");

    sched.publish(1000);
    let board = sched.status();
    assert!(board.ledger_intact());
    assert_eq!(board.containers, 6, "3 surviving apps x 2 containers");
}

#[test]
fn crash_during_serve_restores_from_wal_tail() {
    let store = MemoryStorage::new();
    let handle = journaled_server(&store);
    serve_traffic(handle.addr());

    let sched = handle.scheduler();
    let digest_before = sched.with_writer(|m| m.state().digest());
    // Simulated crash: stop without draining or checkpointing.
    let report = handle.shutdown(false);
    assert!(!report.drained);
    assert!(!report.checkpointed);
    assert!(
        !store.log_lines().is_empty(),
        "the crash leaves an unreplayed WAL tail"
    );

    let restart = sched.with_writer(|m| {
        let reports = faithful_reports(m);
        m.restart(1000, &reports).expect("restart restores")
    });
    assert!(restart.restored_from_journal);
    assert!(restart.replayed_ops > 0, "tail must be replayed");
    assert!(restart.audit_error.is_none());
    let digest_after = sched.with_writer(|m| m.state().digest());
    assert_eq!(digest_before, digest_after, "WAL tail reproduced the state");
}

#[test]
fn crash_with_queued_admissions_loses_only_unacked_queue_state() {
    // Park the batcher so admitted-but-unbatched work exists at the
    // crash, then check the restart does not resurrect it: admission is
    // an ack of *queueing*, durability starts at submission to the
    // scheduler (which is journaled).
    let store = MemoryStorage::new();
    let mut m = common::scheduler(8);
    m.attach_journal(Wal::new(store.clone()), 64)
        .expect("attach journal");
    let handle = start_with(m, AdmissionConfig::default());
    let (registry, sched) = (handle.registry(), handle.scheduler());
    let mut c = Client::connect(handle.addr());
    let report = std::thread::scope(|s| {
        let crash = parked(&registry, &sched, &mut c, |c| {
            assert!(matches!(c.place(1, "a", 1, 1), Response::Accepted { .. }));
            // The crash joins the batcher, so it waits on its own thread;
            // it has been requested once admission sheds as shutting down.
            let crash = s.spawn(move || handle.shutdown(false));
            for id in 2.. {
                match c.place(id, "a", id, 1) {
                    Response::Overloaded { reason, .. } if reason == "shutting_down" => break,
                    _ => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            crash
        });
        crash.join().expect("the crash returns")
    });
    assert!(!report.drained);

    let restart = sched.with_writer(|m| {
        let reports = faithful_reports(m);
        m.restart(50, &reports).expect("restart restores")
    });
    assert!(restart.audit_error.is_none());
    sched.publish(50);
    let board = sched.status();
    assert!(
        !board.apps.contains_key(&ApplicationId(1)),
        "unsubmitted work is not resurrected"
    );
    assert_eq!(
        board.containers, PARK_APPS,
        "the submitted park requests are"
    );
    assert!(board.ledger_intact());
}
