//! Work-preserving restart suite: RM failover with journal restore,
//! in-flight solve requeueing, and anti-entropy reconciliation against
//! node reports.

use medea_cluster::{
    ApplicationId, ClusterState, ContainerId, ContainerRequest, NodeId, Resources, Tag,
};
use medea_core::{
    container_version, AppSpec, LifecyclePhase, LraAlgorithm, LraRequest, MedeaScheduler,
    NodeReport, TaskJobRequest,
};
use medea_journal::{JournalError, JournalStorage, MemoryStorage, Wal};
use medea_obs::MetricsRegistry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn cluster() -> ClusterState {
    ClusterState::homogeneous(4, Resources::new(8192, 8), 2)
}

fn lra(app: u64, count: usize, mem: u64, tag: &str) -> LraRequest {
    LraRequest::uniform(
        ApplicationId(app),
        count,
        Resources::new(mem, 1),
        vec![Tag::new(tag)],
        vec![],
    )
}

/// Ground-truth node reports: every node re-registers with exactly what
/// the scheduler believes it hosts (the zero-divergence baseline).
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

#[test]
fn restart_requeues_inflight_solves_and_refuses_stale_commits() {
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
    m.submit_lra(lra(1, 2, 1024, "a"), 0).unwrap();
    m.submit_lra(lra(2, 1, 1024, "b"), 0).unwrap();
    let solve = m.propose_all(0).pop().expect("solve should start");
    assert!(m.solve_inflight());

    let report = m.restart(5, &faithful_reports(&m)).unwrap();
    assert!(!report.restored_from_journal, "no journal attached");
    assert_eq!(report.inflight_solves_dropped, 1);
    assert_eq!(report.inflight_lras_requeued, 2);
    assert!(!m.solve_inflight(), "restart clears the inflight gate");
    assert!(report.audit_error.is_none());

    // The pre-restart solve is from a dead incarnation: committing it
    // must be a no-op, not a double placement.
    assert!(m.commit(5, solve).is_empty());
    assert_eq!(m.state().num_containers(), 0);

    // The requeued entries deploy at the next interval.
    let deployed = m.tick(10);
    assert_eq!(deployed.len(), 2);
    assert_eq!(m.state().num_containers(), 3);
}

#[test]
fn journaled_restart_rebuilds_identical_state() {
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10);
    m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
    m.submit_lra(lra(1, 3, 1024, "svc"), 0).unwrap();
    assert_eq!(m.tick(0).len(), 1);
    m.submit_tasks(
        TaskJobRequest::new(ApplicationId(9), Resources::new(512, 1), 2),
        1,
    )
    .unwrap();
    m.heartbeat(NodeId(0), 1);
    let before = m.state().digest();

    let report = m.restart(5, &faithful_reports(&m)).unwrap();
    assert!(report.restored_from_journal);
    assert!(report.replayed_ops > 0, "tail must have been replayed");
    assert_eq!(report.phantom_containers_released, 0);
    assert_eq!(report.unknown_containers_reported, 0);
    assert_eq!(report.nodes_marked_lost, 0);
    assert!(report.audit_error.is_none());
    assert_eq!(m.state().digest(), before, "zero-loss restart is exact");
    // The rebuilt state keeps journaling: a post-restart mutation
    // appends to the same WAL.
    let appends = m.journal_stats().records_appended;
    m.submit_tasks(
        TaskJobRequest::new(ApplicationId(10), Resources::new(512, 1), 1),
        6,
    )
    .unwrap();
    m.heartbeat(NodeId(1), 6);
    assert!(m.journal_stats().records_appended > appends);
}

#[test]
fn phantom_containers_route_through_recovery_and_stay_accounted() {
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10);
    m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
    m.submit_lra(lra(1, 2, 1024, "svc"), 0).unwrap();
    let deployed = m.tick(0);
    assert_eq!(deployed.len(), 1);
    let victim = deployed[0].containers[0];

    // The outage killed one container: its node re-registers without it.
    let mut reports = faithful_reports(&m);
    for r in &mut reports {
        r.containers.retain(|&c| c != victim);
    }
    let report = m.restart(5, &reports).unwrap();
    assert_eq!(report.phantom_containers_released, 1);
    assert_eq!(report.lost_lra_containers, 1);
    assert_eq!(report.lost_task_containers, 0);
    assert!(report.audit_error.is_none());
    let r = m.recovery_report();
    assert_eq!(r.containers_lost, 1);
    assert_eq!(r.containers_pending, 1, "phantom enters the recovery queue");
    assert!(r.accounted(), "lost = replaced + unplaceable + pending");

    // The recovery pipeline replaces it at the next interval.
    let redeployed = m.tick(10);
    assert_eq!(redeployed.len(), 1);
    assert!(redeployed[0].recovered);
    let r = m.recovery_report();
    assert_eq!(r.containers_replaced, 1);
    assert!(r.accounted());
}

#[test]
fn phantom_task_containers_repair_queue_accounting() {
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
    m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
    m.submit_tasks(
        TaskJobRequest::new(ApplicationId(7), Resources::new(1024, 1), 3),
        0,
    )
    .unwrap();
    let allocs = m.heartbeat(NodeId(2), 0);
    assert_eq!(allocs.len(), 3);

    let mut reports = faithful_reports(&m);
    for r in &mut reports {
        r.containers.retain(|&c| c != allocs[0].container);
    }
    let report = m.restart(5, &reports).unwrap();
    assert_eq!(report.lost_task_containers, 1);
    assert_eq!(report.lost_lra_containers, 0);
    assert_eq!(m.state().num_containers(), 2);
    // Task losses never enter LRA recovery accounting.
    assert_eq!(m.recovery_report().containers_lost, 0);
}

#[test]
fn silent_nodes_are_marked_lost() {
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10);
    m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
    m.submit_lra(lra(1, 2, 1024, "svc"), 0).unwrap();
    let deployed = m.tick(0);
    assert_eq!(deployed.len(), 1);
    let dead = deployed[0].nodes[0];
    let lost_here = deployed[0].nodes.iter().filter(|&&n| n == dead).count();

    // One node never re-registers after the failover.
    let reports: Vec<NodeReport> = faithful_reports(&m)
        .into_iter()
        .filter(|r| r.node != dead)
        .collect();
    let report = m.restart(5, &reports).unwrap();
    assert_eq!(report.nodes_marked_lost, 1);
    assert!(!m.state().is_available(dead));
    let r = m.recovery_report();
    assert_eq!(r.containers_lost, lost_here);
    assert!(r.accounted());

    // Replacements avoid the dead node.
    let redeployed = m.tick(10);
    assert_eq!(redeployed.len(), 1);
    assert!(redeployed[0].nodes.iter().all(|&n| n != dead));
}

#[test]
fn unknown_reported_containers_are_counted_not_adopted() {
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
    m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
    let mut reports = faithful_reports(&m);
    reports[0].containers.push(ContainerId(999));
    let report = m.restart(5, &reports).unwrap();
    assert_eq!(report.unknown_containers_reported, 1);
    assert_eq!(m.state().num_containers(), 0);
    assert!(report.audit_error.is_none());
}

#[test]
fn recovery_invariant_survives_restart_mid_solve() {
    // Lose a node, let the recovery batch go in flight, then crash the
    // RM mid-solve: the lost containers must stay accounted (pending)
    // across the restart boundary and still be replaced afterwards.
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10);
    m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
    m.submit_lra(lra(1, 2, 1024, "svc"), 0).unwrap();
    let deployed = m.tick(0);
    let victim_node = deployed[0].nodes[0];
    let lost = m.node_lost(victim_node, 5).lra_containers_lost;
    assert!(lost > 0);

    let solve = m.propose_all(10).pop().expect("recovery batch solves");
    assert!(m.recovery_report().accounted(), "pending counts in-flight");
    let report = m.restart(12, &faithful_reports(&m)).unwrap();
    assert_eq!(report.inflight_lras_requeued, 1);
    assert!(m.recovery_report().accounted(), "accounted across restart");
    assert!(m.commit(12, solve).is_empty(), "stale solve refused");

    // The requeue went through §5.4 resubmission: recovery entries back
    // off (base 10 ticks) before their next attempt.
    let redeployed = m.tick(30);
    assert_eq!(redeployed.len(), 1);
    assert!(redeployed[0].recovered);
    let r = m.recovery_report();
    assert_eq!(r.containers_replaced, lost);
    assert!(r.accounted());
}

/// Container ids of `app` currently deployed at version `v` (untagged
/// containers count as version 1, the adoption baseline).
fn at_version(m: &MedeaScheduler, app: ApplicationId, v: u64) -> Vec<ContainerId> {
    m.state()
        .app_containers(app)
        .iter()
        .copied()
        .filter(|&id| {
            m.state()
                .allocation(id)
                .map(|a| container_version(&a.tags).unwrap_or(1) == v)
                .unwrap_or(false)
        })
        .collect()
}

#[test]
fn restart_mid_rolling_upgrade_resumes_at_the_right_domain() {
    // Crash the RM halfway through a rolling upgrade: the desired spec
    // (version 2) must come back from the journal, the upgrade cursor
    // must be re-derived from the `ver:` tags of the restored
    // allocations — not reset to zero — and the resumed walk must
    // neither churn already-upgraded containers nor dip below
    // `replicas - budget` running replicas.
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10);
    m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
    let app = ApplicationId(1);
    m.submit_managed_lra(
        app,
        ContainerRequest::new(Resources::new(1024, 1), [Tag::new("svc")]),
        vec![],
        AppSpec::replicas(4).with_budget(1),
    )
    .unwrap();
    m.tick(0);
    let lc = m.app_lifecycle(app).expect("managed");
    assert_eq!(lc.phase, LifecyclePhase::Steady);
    assert_eq!((lc.running, lc.at_version), (4, 4));

    // One upgrade round: budget 1 caps the wave at one replacement.
    assert!(m.set_version(app, 2));
    m.tick(10);
    let upgraded_before = at_version(&m, app, 2);
    assert!(
        !upgraded_before.is_empty() && upgraded_before.len() < 4,
        "crash must land mid-upgrade, saw {} of 4 upgraded",
        upgraded_before.len()
    );
    assert!(m.app_lifecycle(app).expect("managed").running >= 3);

    // RM failover mid-upgrade.
    let report = m.restart(15, &faithful_reports(&m)).unwrap();
    assert!(report.restored_from_journal);
    let lc = m.app_lifecycle(app).expect("spec restored from journal");
    assert_eq!(lc.spec.version, 2, "desired version survives the crash");
    assert_eq!(lc.spec.replicas, 4);
    assert_eq!(lc.phase, LifecyclePhase::Upgrading, "phase re-derived");
    assert_eq!(
        lc.at_version,
        upgraded_before.len(),
        "upgrade cursor re-derived from ver tags, not reset"
    );

    // Resume the walk to completion, checking the budget each round.
    let mut t = 20;
    while m.app_lifecycle(app).expect("managed").phase == LifecyclePhase::Upgrading && t < 200 {
        m.tick(t);
        assert!(
            m.app_lifecycle(app).expect("managed").running >= 3,
            "voluntary disruption exceeded the budget at t={t}"
        );
        t += 10;
    }
    let lc = m.app_lifecycle(app).expect("managed");
    assert_eq!(lc.phase, LifecyclePhase::Steady, "upgrade never converged");
    assert_eq!((lc.running, lc.at_version), (4, 4));
    let upgraded_after = at_version(&m, app, 2);
    assert_eq!(upgraded_after.len(), 4);
    for id in &upgraded_before {
        assert!(
            upgraded_after.contains(id),
            "already-upgraded container {id:?} was churned after restart"
        );
    }
    assert!(m.recovery_report().accounted());
}

#[test]
fn checkpoint_cadence_bounds_the_replay_tail() {
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
    m.attach_journal(Wal::new(MemoryStorage::new()), 20)
        .unwrap();
    assert_eq!(m.journal_stats().checkpoints_installed, 1, "initial");

    m.submit_lra(lra(1, 2, 1024, "a"), 0).unwrap();
    assert_eq!(m.tick(0).len(), 1);
    // The cadence fires inside the scheduling entry point even when the
    // queue is empty.
    m.tick(20);
    assert_eq!(m.journal_stats().checkpoints_installed, 2, "periodic");

    // Mutations after the checkpoint form the only replay tail.
    m.submit_lra(lra(2, 1, 1024, "b"), 21).unwrap();
    assert_eq!(m.tick(30).len(), 1);
    let report = m.restart(31, &faithful_reports(&m)).unwrap();
    assert!(report.restored_from_journal);
    assert_eq!(report.replayed_ops, 1, "checkpoint absorbed earlier ops");
    assert_eq!(m.state().num_containers(), 3);
}

#[test]
fn explicit_checkpoint_truncates_tail_to_zero() {
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Serial, 10);
    m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
    m.submit_lra(lra(1, 3, 1024, "a"), 0).unwrap();
    assert_eq!(m.tick(0).len(), 1);
    m.checkpoint(1).unwrap();
    let report = m.restart(2, &faithful_reports(&m)).unwrap();
    assert_eq!(report.replayed_ops, 0);
    assert_eq!(m.state().num_containers(), 3);
}

/// Journal storage that counts how often each half of the journal is
/// read back.
struct CountingStorage {
    inner: MemoryStorage,
    log_reads: Arc<AtomicUsize>,
    checkpoint_reads: Arc<AtomicUsize>,
}

impl JournalStorage for CountingStorage {
    fn append_line(&mut self, line: &str) -> Result<(), JournalError> {
        self.inner.append_line(line)
    }
    fn read_log(&self) -> Result<Vec<String>, JournalError> {
        self.log_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_log()
    }
    fn write_checkpoint(&mut self, body: &str) -> Result<(), JournalError> {
        self.inner.write_checkpoint(body)
    }
    fn read_checkpoint(&self) -> Result<Option<String>, JournalError> {
        self.checkpoint_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_checkpoint()
    }
    fn truncate_log(&mut self) -> Result<(), JournalError> {
        self.inner.truncate_log()
    }
}

#[test]
fn restart_reads_the_journal_once() {
    let log_reads = Arc::new(AtomicUsize::new(0));
    let checkpoint_reads = Arc::new(AtomicUsize::new(0));
    let storage = CountingStorage {
        inner: MemoryStorage::new(),
        log_reads: Arc::clone(&log_reads),
        checkpoint_reads: Arc::clone(&checkpoint_reads),
    };
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10);
    m.attach_journal(Wal::new(storage), 0).unwrap();
    m.submit_managed_lra(
        ApplicationId(1),
        ContainerRequest::new(Resources::new(1024, 1), [Tag::new("svc")]),
        vec![],
        AppSpec::replicas(3),
    )
    .unwrap();
    assert_eq!(m.tick(0).len(), 1);
    let before = m.state().digest();

    for k in 1..=2 {
        let report = m.restart(5 + k, &faithful_reports(&m)).unwrap();
        assert!(report.restored_from_journal);
        assert_eq!(m.state().digest(), before);
        // Specs and cluster state both come out of the same load.
        assert_eq!(m.lifecycles().len(), 1);
        assert_eq!(log_reads.load(Ordering::Relaxed), k as usize);
        assert_eq!(checkpoint_reads.load(Ordering::Relaxed), k as usize);
    }
}

/// The `journal.*` gauges follow the cluster's own appends, not only
/// checkpoints: after a placing tick, a cancel and a node loss they read
/// what `journal_stats()` reads.
#[test]
fn journal_gauges_follow_every_append() {
    let registry = MetricsRegistry::new();
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10)
        .with_metrics(Arc::clone(&registry));
    m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
    let mut appended = 0;
    let mut check = |m: &MedeaScheduler, step: &str| {
        let stats = m.journal_stats();
        assert!(stats.records_appended > appended, "{step} appends");
        appended = stats.records_appended;
        let snap = registry.snapshot();
        let gauges = (snap.gauge("journal.appends"), snap.gauge("journal.bytes"));
        let want = (
            Some(stats.records_appended as i64),
            Some(stats.bytes_appended as i64),
        );
        assert_eq!(gauges, want, "{step}");
    };

    m.submit_lra(lra(1, 3, 1024, "a"), 0).unwrap();
    m.submit_lra(lra(2, 2, 1024, "b"), 0).unwrap();
    assert_eq!(m.tick(0).len(), 2);
    check(&m, "placing tick");
    m.cancel_lra(ApplicationId(1));
    check(&m, "cancel_lra");
    let node = m
        .state()
        .node_ids()
        .find(|&n| m.state().containers_on(n).is_ok_and(|c| !c.is_empty()))
        .expect("app 2 is deployed");
    m.node_lost(node, 1);
    check(&m, "node_lost");
}
