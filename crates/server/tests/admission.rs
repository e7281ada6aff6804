//! Deterministic admission-control and backpressure tests.
//!
//! The first half drives [`AdmissionQueue`] directly with a fake clock
//! (no sockets, no threads): the shed boundary, the per-tenant fairness
//! quota, and batch-close on size, deadline and quiet are exact. The second
//! half checks the same behaviors through a live server, plus the
//! graceful-shutdown flush.

mod common;

use common::{parked, start, Client, PARK_APPS};
use medea_cluster::{ApplicationId, Resources, Tag};
use medea_core::LraRequest;
use medea_server::{
    AdmissionConfig, AdmissionQueue, BatchClose, Request, Response, ShedReason, QUIET_MAX_US,
    RETRY_AFTER_MS,
};

fn req(app: u64) -> LraRequest {
    LraRequest::uniform(
        ApplicationId(app),
        1,
        Resources::new(1024, 1),
        vec![Tag::new("t")],
        vec![],
    )
}

fn cfg() -> AdmissionConfig {
    AdmissionConfig {
        queue_capacity: 4,
        tenant_quota: 2,
        batch_max_size: 3,
        batch_max_wait_ms: 10,
    }
}

#[test]
fn queue_full_sheds_exactly_at_capacity() {
    let mut q = AdmissionQueue::new(cfg());
    for app in 0..4 {
        // Distinct tenants so only the global bound is in play.
        q.offer(&format!("t{app}"), req(app), 0).unwrap();
    }
    assert_eq!(q.len(), 4);
    let err = q.offer("t9", req(9), 0).unwrap_err();
    assert_eq!(err, ShedReason::QueueFull);
    assert_eq!(err.code(), "queue_full");
    assert_eq!(q.shed_stats().queue_full, 1);
    assert_eq!(q.admitted(), 4);

    // Draining a batch frees capacity again.
    let batch = q.take_batch();
    assert_eq!(batch.len(), 3);
    q.offer("t9", req(9), 1).unwrap();
}

#[test]
fn tenant_quota_sheds_the_noisy_tenant_only() {
    let mut q = AdmissionQueue::new(cfg());
    q.offer("noisy", req(1), 0).unwrap();
    q.offer("noisy", req(2), 0).unwrap();
    let err = q.offer("noisy", req(3), 0).unwrap_err();
    assert_eq!(err, ShedReason::TenantQuota);
    // A polite tenant is unaffected by the noisy one's quota.
    q.offer("polite", req(4), 0).unwrap();
    assert_eq!(q.shed_stats().tenant_quota, 1);
    assert_eq!(q.tenant_depth("noisy"), 2);
    assert_eq!(q.tenant_depth("polite"), 1);

    // Taking a batch releases the noisy tenant's slots.
    let batch = q.take_batch();
    assert_eq!(batch.len(), 3);
    assert_eq!(q.tenant_depth("noisy"), 0);
    q.offer("noisy", req(5), 1).unwrap();
}

#[test]
fn batch_closes_on_size_before_deadline() {
    let mut q = AdmissionQueue::new(cfg());
    q.offer("a", req(1), 0).unwrap();
    q.offer("b", req(2), 0).unwrap();
    assert_eq!(q.batch_close(0), None, "2 < batch_max_size and no age yet");
    q.offer("c", req(3), 0).unwrap();
    assert_eq!(
        q.batch_close(0),
        Some(BatchClose::Size),
        "size bound reached closes immediately"
    );
    let batch = q.take_batch();
    assert_eq!(batch.len(), 3);
    assert_eq!(q.batch_close(0), None, "queue drained");
}

/// The fake clock counts µs; `cfg()`'s `batch_max_wait_ms` = 10.
const CAP_US: u64 = 10_000;

/// `cfg()` with room for a long trickle: only quiet and the deadline
/// close it.
fn roomy() -> AdmissionConfig {
    AdmissionConfig {
        queue_capacity: 64,
        tenant_quota: 64,
        batch_max_size: 64,
        ..cfg()
    }
}

#[test]
fn batch_closes_on_deadline_for_a_trickle() {
    let mut q = AdmissionQueue::new(roomy());
    // Arrivals every 0.2 ms, under the quiet bound: quiet never fires,
    // and the head's deadline closes them at exactly 10 ms.
    const { assert!(200 < QUIET_MAX_US) };
    let mut now = 100_000;
    while now < 100_000 + CAP_US {
        q.offer("a", req(now), now).unwrap();
        assert_eq!(q.batch_close(now), None);
        now += 200;
    }
    assert_eq!(q.next_close_us(), Some(110_000), "the deadline bounds it");
    assert_eq!(q.batch_close(109_999), None, "one µs before the deadline");
    assert_eq!(
        q.batch_close(110_000),
        Some(BatchClose::Deadline),
        "the head aged exactly batch_max_wait_ms, not a whole ms more"
    );
    assert_eq!(q.take_batch().len(), 50);
    assert_eq!(q.next_close_us(), None);
}

/// The quiet gap as the queue applies it: how long after a lone arrival
/// on an empty queue the batch closes.
fn quiet_gap_us(q: &mut AdmissionQueue) -> u64 {
    assert!(q.is_empty());
    q.offer("probe", req(u64::MAX), 1_000_000).unwrap();
    let close = q.next_close_us().expect("one request waits");
    q.take_batch();
    close - 1_000_000
}

#[test]
fn before_any_batch_carrying_cycle_the_gap_is_the_bound() {
    let mut q = AdmissionQueue::new(cfg());
    assert_eq!(quiet_gap_us(&mut q), QUIET_MAX_US, "a cold queue");
    // Release-only and reconcile-only cycles carry no batch and say
    // nothing about what a round costs, however long they took.
    q.cycle_done(0, 50);
    q.cycle_done(0, 5_000_000);
    assert_eq!(quiet_gap_us(&mut q), QUIET_MAX_US);
    q.cycle_done(2, 200);
    assert_eq!(quiet_gap_us(&mut q), 200, "a round under the bound");
    q.cycle_done(0, 7);
    assert_eq!(quiet_gap_us(&mut q), 200, "an empty cycle leaves the gap");
    q.cycle_done(1, 150);
    assert_eq!(
        quiet_gap_us(&mut q),
        150,
        "the last batch-carrying cycle wins"
    );
    q.cycle_done(1, 30_000);
    assert_eq!(quiet_gap_us(&mut q), QUIET_MAX_US, "a round over it");
}

#[test]
fn after_a_long_round_a_finished_burst_closes_one_bound_after_its_last_request() {
    let mut q = AdmissionQueue::new(roomy());
    q.cycle_done(3, 30_000);
    for (app, at) in [(1, 50_000), (2, 50_020), (3, 50_040)] {
        q.offer("a", req(app), at).unwrap();
        assert_eq!(q.batch_close(at), None);
    }
    let close = 50_040 + QUIET_MAX_US;
    assert_eq!(q.next_close_us(), Some(close));
    assert_eq!(q.batch_close(close - 1), None);
    assert_eq!(q.batch_close(close), Some(BatchClose::Quiet));
    assert_eq!(q.take_batch().len(), 3, "the burst is one batch");
}

#[test]
fn a_lone_request_closes_one_gap_after_itself() {
    let mut q = AdmissionQueue::new(cfg());
    q.cycle_done(1, 200);
    q.offer("a", req(1), 50_000).unwrap();
    assert_eq!(q.batch_close(50_000), None);
    assert_eq!(q.batch_close(50_199), None);
    assert_eq!(q.next_close_us(), Some(50_200));
    assert_eq!(q.batch_close(50_200), Some(BatchClose::Quiet));
}

#[test]
fn arrivals_spaced_under_the_gap_stay_one_batch() {
    let mut q = AdmissionQueue::new(roomy());
    q.cycle_done(3, 200);
    // Eight arrivals 180 µs apart: each lands before the gap after the
    // one before it ran out, so nothing closes in between.
    let mut now = 20_000;
    for app in 0..8 {
        q.offer("a", req(app), now).unwrap();
        assert_eq!(q.batch_close(now), None);
        assert_eq!(q.batch_close(now + 179), None);
        assert_eq!(q.next_close_us(), Some(now + 200));
        now += 180;
    }
    // One gap after the last (admitted at 21_260) the eight close as one.
    let last = now - 180;
    assert_eq!(q.batch_close(last + 199), None);
    assert_eq!(q.batch_close(last + 200), Some(BatchClose::Quiet));
    assert_eq!(q.take_batch().len(), 8);
}

#[test]
fn the_gap_never_exceeds_its_bound_nor_postpones_the_deadline() {
    let mut q = AdmissionQueue::new(AdmissionConfig {
        batch_max_size: 4,
        ..cfg()
    });
    // A 130 ms round: the gap is the bound, not the round.
    q.cycle_done(3, 130_000);
    assert_eq!(quiet_gap_us(&mut q), QUIET_MAX_US);
    q.offer("a", req(1), 0).unwrap();
    q.offer("b", req(2), 40).unwrap();
    let close = 40 + QUIET_MAX_US;
    assert_eq!(q.next_close_us(), Some(close), "last + bound");
    assert_eq!(q.batch_close(close - 1), None);
    assert_eq!(q.batch_close(close), Some(BatchClose::Quiet));
    q.take_batch();

    // Unbounded (the rule before the bound), a gap longer than the
    // deadline's wait does not postpone it: cold, and after a 130 ms
    // round, the head's deadline closes the batch exactly on time.
    let mut q = AdmissionQueue::with_quiet_max(cfg(), u64::MAX);
    assert_eq!(quiet_gap_us(&mut q), CAP_US);
    q.cycle_done(3, 130_000);
    q.offer("a", req(3), 100_000).unwrap();
    q.offer("b", req(4), 100_040).unwrap();
    assert_eq!(
        q.next_close_us(),
        Some(100_000 + CAP_US),
        "head + cap, not last + round"
    );
    assert_eq!(q.batch_close(100_000 + CAP_US - 1), None);
    assert_eq!(q.batch_close(100_000 + CAP_US), Some(BatchClose::Deadline));
}

#[test]
fn size_still_wins_immediately_under_a_short_gap() {
    let mut q = AdmissionQueue::new(cfg());
    q.cycle_done(1, 1_000);
    for app in 0..3 {
        q.offer(&format!("t{app}"), req(app), 5_000).unwrap();
    }
    assert_eq!(q.batch_close(5_000), Some(BatchClose::Size));
}

#[test]
fn closed_queue_sheds_as_shutting_down_but_stays_drainable() {
    let mut q = AdmissionQueue::new(cfg());
    q.offer("a", req(1), 0).unwrap();
    q.close();
    assert!(q.is_closed());
    let err = q.offer("b", req(2), 0).unwrap_err();
    assert_eq!(err, ShedReason::ShuttingDown);
    assert_eq!(q.shed_stats().shutting_down, 1);
    // Work admitted before the close still drains.
    assert_eq!(q.take_batch().len(), 1);
}

// ---------------------------------------------------------------------
// The same behaviors through a live server.
// ---------------------------------------------------------------------

/// Default batching with the given queue bounds.
fn bounded(queue_capacity: usize, tenant_quota: usize) -> AdmissionConfig {
    AdmissionConfig {
        queue_capacity,
        tenant_quota,
        ..AdmissionConfig::default()
    }
}

#[test]
fn server_sheds_queue_full_with_typed_overloaded() {
    let handle = start(4, bounded(2, 10));
    let (registry, sched) = (handle.registry(), handle.scheduler());
    let mut c = Client::connect(handle.addr());
    parked(&registry, &sched, &mut c, |c| {
        assert!(matches!(c.place(1, "a", 1, 1), Response::Accepted { .. }));
        assert!(matches!(c.place(2, "a", 2, 1), Response::Accepted { .. }));
        match c.place(3, "a", 3, 1) {
            Response::Overloaded {
                id,
                reason,
                retry_after_ms,
            } => {
                assert_eq!(id, 3);
                assert_eq!(reason, "queue_full");
                assert_eq!(retry_after_ms, RETRY_AFTER_MS);
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        // The shed app never entered the system.
        match c.query(4, 3) {
            Response::AppStatus { phase, .. } => assert_eq!(phase, "unknown"),
            other => panic!("expected app status, got {other:?}"),
        }
    });
    // Graceful shutdown still flushes the two queued requests.
    let report = handle.shutdown(true);
    assert!(report.drained && report.drain_complete);
    assert_eq!(report.shed_total, 1);
    assert_eq!(report.admitted_total, 2 + PARK_APPS as u64);
    let board = sched.status();
    assert_eq!(
        board.stats.lras_deployed,
        2 + PARK_APPS,
        "queued work flushed at drain"
    );
}

/// Shedding a re-placed id rolls its record back to `released`, not to
/// `unknown`: the shed request never entered the system, the release
/// did.
#[test]
fn shedding_a_replaced_id_keeps_its_release() {
    let handle = start(4, bounded(2, 10));
    let (registry, sched) = (handle.registry(), handle.scheduler());
    let mut c = Client::connect(handle.addr());
    parked(&registry, &sched, &mut c, |c| {
        assert!(matches!(c.place(1, "a", 1, 1), Response::Accepted { .. }));
        assert!(matches!(
            c.call(&Request::Release {
                id: 2,
                tenant: "a".to_string(),
                app: 1,
            }),
            Response::Released { .. }
        ));
        assert!(matches!(c.place(3, "a", 2, 1), Response::Accepted { .. }));
        assert!(matches!(c.place(4, "a", 3, 1), Response::Accepted { .. }));
        match c.place(5, "a", 1, 1) {
            Response::Overloaded { reason, .. } => assert_eq!(reason, "queue_full"),
            other => panic!("expected overloaded, got {other:?}"),
        }
        match c.query(6, 1) {
            Response::AppStatus { phase, .. } => assert_eq!(phase, "released"),
            other => panic!("expected app status, got {other:?}"),
        }
    });
    handle.shutdown(true);
}

#[test]
fn server_sheds_over_quota_tenant_but_serves_others() {
    let handle = start(4, bounded(100, 1));
    let (registry, sched) = (handle.registry(), handle.scheduler());
    let mut c = Client::connect(handle.addr());
    parked(&registry, &sched, &mut c, |c| {
        assert!(matches!(
            c.place(1, "noisy", 1, 1),
            Response::Accepted { .. }
        ));
        match c.place(2, "noisy", 2, 1) {
            Response::Overloaded { reason, .. } => assert_eq!(reason, "tenant_quota"),
            other => panic!("expected overloaded, got {other:?}"),
        }
        assert!(matches!(
            c.place(3, "polite", 3, 1),
            Response::Accepted { .. }
        ));
    });
    handle.shutdown(true);
}

#[test]
fn place_after_wire_shutdown_sheds_as_shutting_down() {
    let handle = start(4, AdmissionConfig::default());
    let mut c = Client::connect(handle.addr());
    assert!(matches!(c.place(1, "a", 1, 1), Response::Accepted { .. }));
    assert!(matches!(
        c.call(&Request::Shutdown { id: 2 }),
        Response::ShutdownAck { .. }
    ));
    match c.place(3, "a", 2, 1) {
        Response::Overloaded { reason, .. } => assert_eq!(reason, "shutting_down"),
        other => panic!("expected overloaded, got {other:?}"),
    }
    // Queries still answer during the drain window.
    assert!(matches!(c.query(4, 1), Response::AppStatus { .. }));
    let report = handle.shutdown(true);
    assert!(report.drained && report.drain_complete);
}
