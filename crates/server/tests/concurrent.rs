//! Multi-client concurrency stress: N client threads hammer one server
//! with interleaved place / release / query traffic.
//!
//! Invariants checked:
//! - every request gets exactly one response (none lost, none
//!   duplicated), with the client-chosen id echoed verbatim;
//! - pipelined requests on one connection are answered in order, also
//!   under full-duplex traffic (one thread writing frames while another
//!   drains the replies on the same connection);
//! - the server counts zero protocol errors and answers no typed error;
//! - after the storm and a graceful drain, the scheduler's invariant
//!   audit passes and the recovery ledger satisfies
//!   `lost = replaced + unplaceable + pending`.

mod common;

use std::time::Duration;

use common::{start, Client};
use medea_server::{AdmissionConfig, ContainerSpec, Request, Response};

const CLIENTS: u64 = 8;
const APPS_PER_CLIENT: u64 = 6;
/// Frames each client writes in the full-duplex phase: 7 places to 1
/// query, closed by a sentinel query.
const DUPLEX_FRAMES: u64 = 100;
const DUPLEX_PLACES: u64 = DUPLEX_FRAMES - DUPLEX_FRAMES / 8;

#[test]
fn eight_clients_interleaved_place_release_query() {
    // Generous queue so nothing sheds: the invariant under test is
    // response integrity, not backpressure (that's tests/admission.rs).
    let handle = start(
        64,
        AdmissionConfig {
            queue_capacity: 4096,
            tenant_quota: 1024,
            batch_max_size: 16,
            batch_max_wait_ms: 5,
        },
    );
    let addr = handle.addr();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let tenant = format!("tenant{t}");
                let mut c = Client::connect(addr);
                let mut responses = 0u64;

                // Phase 1: pipeline all place requests, then read the
                // replies — order and ids must match exactly.
                let ids: Vec<u64> = (0..APPS_PER_CLIENT).map(|k| t * 1000 + k).collect();
                for (k, &id) in ids.iter().enumerate() {
                    c.send(&Request::Place {
                        id,
                        tenant: tenant.clone(),
                        app: app_id(t, k as u64),
                        containers: vec![ContainerSpec {
                            count: 2,
                            memory_mb: 1024,
                            vcores: 1,
                            tags: vec![format!("svc{t}")],
                        }],
                        constraints: vec![],
                    });
                }
                for &id in &ids {
                    match c.recv() {
                        Response::Accepted { id: got, .. } => {
                            assert_eq!(got, id, "pipelined replies must come back in order");
                            responses += 1;
                        }
                        other => panic!("client {t}: expected accepted, got {other:?}"),
                    }
                }

                // Phase 2: poll every app to placement.
                for k in 0..APPS_PER_CLIENT {
                    common::await_phase(&mut c, app_id(t, k), "placed", Duration::from_secs(30));
                    responses += 1; // the final successful query
                }

                // Phase 3: release the even apps, interleaved with
                // queries on the odd ones.
                for k in 0..APPS_PER_CLIENT {
                    let app = app_id(t, k);
                    if k % 2 == 0 {
                        let id = t * 1000 + 500 + k;
                        match c.call(&Request::Release {
                            id,
                            tenant: tenant.clone(),
                            app,
                        }) {
                            Response::Released { id: got, app: a } => {
                                assert_eq!(got, id);
                                assert_eq!(a, app);
                                responses += 1;
                            }
                            other => panic!("client {t}: expected released, got {other:?}"),
                        }
                    } else {
                        let id = t * 1000 + 700 + k;
                        match c.query(id, app) {
                            Response::AppStatus { id: got, phase, .. } => {
                                assert_eq!(got, id);
                                assert_eq!(phase, "placed");
                                responses += 1;
                            }
                            other => panic!("client {t}: expected app status, got {other:?}"),
                        }
                    }
                }

                // Phase 4: released apps eventually report released.
                for k in (0..APPS_PER_CLIENT).step_by(2) {
                    match c.query(t * 1000 + 800 + k, app_id(t, k)) {
                        Response::AppStatus { phase, .. } => {
                            assert_eq!(phase, "released");
                            responses += 1;
                        }
                        other => panic!("client {t}: expected app status, got {other:?}"),
                    }
                }

                // Phase 5: full duplex. This thread writes frames without
                // waiting while a receiver on the same connection drains
                // the replies; the sentinel query closes the stream.
                let mut rx = c.try_clone();
                let receiver = std::thread::spawn(move || {
                    let mut got: Vec<u64> = Vec::new();
                    loop {
                        let resp = rx.recv();
                        assert!(
                            matches!(resp, Response::Accepted { .. } | Response::AppStatus { .. }),
                            "client {t}: clean duplex traffic got {resp:?}"
                        );
                        got.push(resp.id());
                        if resp.id() == u64::MAX {
                            return got;
                        }
                    }
                });
                let mut sent: Vec<u64> = Vec::new();
                for k in 0..DUPLEX_FRAMES {
                    let id = 100_000 * (t + 1) + k;
                    let app = duplex_app_id(t, k);
                    c.send(&if k % 8 == 7 {
                        Request::Query { id, app: app - 1 }
                    } else {
                        Request::Place {
                            id,
                            tenant: tenant.clone(),
                            app,
                            containers: vec![ContainerSpec {
                                count: 1,
                                memory_mb: 512,
                                vcores: 1,
                                tags: vec![format!("duplex{t}")],
                            }],
                            constraints: vec![],
                        }
                    });
                    sent.push(id);
                }
                c.send(&Request::Query {
                    id: u64::MAX,
                    app: 0,
                });
                sent.push(u64::MAX);
                let got = receiver.join().expect("duplex receiver must not panic");
                assert_eq!(
                    got, sent,
                    "client {t}: every duplex id answered exactly once, in order"
                );
                responses += got.len() as u64;
                // Placement is asynchronous; settle it so the server-side
                // counts below are exact.
                for k in (0..DUPLEX_FRAMES).filter(|k| k % 8 != 7) {
                    common::await_phase(
                        &mut c,
                        duplex_app_id(t, k),
                        "placed",
                        Duration::from_secs(30),
                    );
                }
                responses
            })
        })
        .collect();

    let mut total_responses = 0;
    for w in workers {
        total_responses += w.join().expect("client thread must not panic");
    }
    // Every client accounted for every response it was owed.
    let expected_min =
        CLIENTS * (APPS_PER_CLIENT * 2 + APPS_PER_CLIENT + APPS_PER_CLIENT / 2 + DUPLEX_FRAMES + 1);
    assert!(
        total_responses >= expected_min,
        "response count {total_responses} < {expected_min}"
    );

    // Ground truth from the server side: nothing shed, every place
    // admitted, every app deployed exactly once.
    let mut c = Client::connect(addr);
    match c.call(&Request::Status { id: 1 }) {
        Response::Status { reply, .. } => {
            assert_eq!(reply.shed, 0, "no request may have been shed");
            assert_eq!(reply.admitted, CLIENTS * (APPS_PER_CLIENT + DUPLEX_PLACES));
            assert_eq!(reply.deployed, CLIENTS * (APPS_PER_CLIENT + DUPLEX_PLACES));
            assert_eq!(reply.dropped, 0);
        }
        other => panic!("expected status, got {other:?}"),
    }

    let protocol_errors = handle
        .registry()
        .snapshot()
        .counter("server.protocol_errors_total")
        .unwrap_or(0);
    assert_eq!(protocol_errors, 0, "clean traffic is no protocol error");

    let sched = handle.scheduler();
    let report = handle.shutdown(true);
    assert!(report.drained && report.drain_complete);
    assert_eq!(report.final_queue_depth, 0);

    // Post-drain: invariant audit and recovery ledger.
    sched
        .with_writer(|m| m.audit())
        .expect("post-drain invariant audit");
    let board = sched.status();
    assert!(board.ledger_intact(), "recovery ledger violated");
    // Half the two-container apps were released; the other half and every
    // one-container duplex app still hold their containers.
    let live_apps = CLIENTS * APPS_PER_CLIENT / 2;
    assert_eq!(
        board.containers,
        (live_apps * 2 + CLIENTS * DUPLEX_PLACES) as usize
    );
}

fn app_id(client: u64, k: u64) -> u64 {
    1 + client * APPS_PER_CLIENT + k
}

fn duplex_app_id(client: u64, k: u64) -> u64 {
    1000 + client * DUPLEX_FRAMES + k
}
