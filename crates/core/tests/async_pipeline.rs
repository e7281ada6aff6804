//! Commit-time conflict tests for the propose/validate/commit pipeline.
//!
//! The LRA solve sees the cluster as of propose time while the live
//! cluster keeps mutating (§5.3); at commit time every proposed placement
//! is re-validated (§5.4). These tests drive the two phases by hand and
//! mutate the live state in between, covering the three drift classes:
//! capacity consumed by task containers, node crashes, and γ-cardinality
//! drift — each must re-queue exactly the conflicted entries and keep the
//! recovery accounting invariant (lost = replaced + unplaceable +
//! pending) intact mid-solve.

use std::sync::Arc;

use medea_cluster::{
    ApplicationId, ClusterState, ContainerRequest, ExecutionKind, NodeGroupId, Resources, Tag,
};
use medea_constraints::PlacementConstraint;
use medea_core::{LraAlgorithm, LraRequest, MedeaScheduler};
use medea_obs::MetricsRegistry;

fn lra(app: u64, count: usize, mem: u64, tag: &str) -> LraRequest {
    LraRequest::uniform(
        ApplicationId(app),
        count,
        Resources::new(mem, 1),
        vec![Tag::new(tag)],
        vec![],
    )
}

fn req(mem: u64, tag: &str) -> ContainerRequest {
    ContainerRequest::new(Resources::new(mem, 1), [Tag::new(tag)])
}

#[test]
fn propose_commit_same_tick_equals_tick() {
    let mk = || {
        let mut m = MedeaScheduler::new(
            ClusterState::homogeneous(4, Resources::new(8192, 8), 2),
            LraAlgorithm::Serial,
            10,
        );
        m.submit_lra(lra(1, 3, 1024, "a"), 0).unwrap();
        m.submit_lra(lra(2, 2, 2048, "b"), 0).unwrap();
        m
    };
    let mut via_tick = mk();
    let t = via_tick.tick(0);
    let mut via_phases = mk();
    let solve = via_phases.propose_all(0).pop().expect("batch must propose");
    let p = via_phases.commit(0, solve);
    assert_eq!(t.len(), p.len());
    for (a, b) in t.iter().zip(&p) {
        assert_eq!(a.app, b.app);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.latency_ticks, b.latency_ticks);
    }
}

#[test]
fn single_solve_in_flight() {
    let mut m = MedeaScheduler::new(
        ClusterState::homogeneous(4, Resources::new(8192, 8), 2),
        LraAlgorithm::Serial,
        10,
    );
    m.submit_lra(lra(1, 1, 1024, "a"), 0).unwrap();
    m.submit_lra(lra(2, 1, 1024, "b"), 0).unwrap();
    let solve = m.propose_all(0).pop().expect("first propose runs");
    assert!(m.solve_inflight());
    // A second propose is refused while one is in flight, even past the
    // interval, and does not consume a cycle.
    m.submit_lra(lra(3, 1, 1024, "c"), 5).unwrap();
    assert!(m.propose_all(20).is_empty());
    assert_eq!(m.stats().cycles, 1);
    let deployed = m.commit(7, solve);
    assert_eq!(deployed.len(), 2);
    assert!(!m.solve_inflight());
    // Commit-time, not propose-time, defines deployment latency.
    assert!(deployed.iter().all(|d| d.latency_ticks == 7));
}

#[test]
fn task_capacity_consumed_mid_solve_conflicts_exactly_the_victim() {
    // Two nodes that fit exactly one 4 GB LRA container each. Two
    // single-container LRAs are proposed, one per node; a task container
    // eats one node's capacity mid-solve. Only the LRA proposed on that
    // node may conflict.
    let mut m = MedeaScheduler::new(
        ClusterState::homogeneous(2, Resources::new(4096, 4), 1),
        LraAlgorithm::Serial,
        10,
    );
    m.submit_lra(lra(1, 1, 4096, "a"), 0).unwrap();
    m.submit_lra(lra(2, 1, 4096, "b"), 0).unwrap();
    let solve = m.propose_all(0).pop().expect("batch proposes");
    let placements = solve.placements();
    assert_eq!(placements.len(), 2);
    let (victim_app, victim_node) = (placements[0].0, placements[0].1[0]);
    let survivor_app = placements[1].0;
    assert_ne!(placements[1].1[0], victim_node, "one LRA per node");

    // A task container grabs the victim node while the solve is in
    // flight (live state mutates after the solver saw it).
    let task = m
        .state_mut()
        .allocate(
            ApplicationId(99),
            victim_node,
            &req(4096, "task"),
            ExecutionKind::Task,
        )
        .unwrap();

    let deployed = m.commit(5, solve);
    assert_eq!(deployed.len(), 1, "only the untouched placement commits");
    assert_eq!(deployed[0].app, survivor_app);
    assert_eq!(m.stats().commit_conflicts, 1);
    assert_eq!(m.pending_lras(), 1, "conflicted LRA is re-queued");
    // No partial allocation leaked: cluster holds the task container and
    // the survivor LRA only.
    assert_eq!(m.state().num_containers(), 2);

    // Once the task frees the capacity, the resubmitted LRA lands.
    m.state_mut().release(task).unwrap();
    let retry = m.tick(10);
    assert_eq!(retry.len(), 1);
    assert_eq!(retry[0].app, victim_app);
    assert_eq!(m.stats().lras_deployed, 2);
}

#[test]
fn node_crash_mid_solve_invalidates_and_recovery_accounting_holds() {
    // app1 spreads one container per node. app2's single container is
    // proposed while app1 is deployed; the node app2 targets crashes
    // mid-solve, killing app1's container there and invalidating app2's
    // proposal in the same stroke.
    let mut m = MedeaScheduler::new(
        ClusterState::homogeneous(2, Resources::new(8192, 8), 1),
        LraAlgorithm::Serial,
        10,
    );
    let spread = PlacementConstraint::anti_affinity("w", "w", NodeGroupId::node());
    m.submit_lra(
        LraRequest::uniform(
            ApplicationId(1),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("w")],
            vec![spread],
        ),
        0,
    )
    .unwrap();
    assert_eq!(m.tick(0).len(), 1);

    m.submit_lra(lra(2, 1, 1024, "v"), 5).unwrap();
    let solve = m.propose_all(10).pop().expect("app2 proposes");
    let victim = solve.placements()[0].1[0];

    let report = m.node_lost(victim, 12);
    assert_eq!(report.lra_containers_lost, 1, "app1 lost its leg there");
    // Invariant holds *mid-solve*: 1 lost, 1 pending (the queued
    // recovery request), nothing replaced or unplaceable yet.
    let r = m.recovery_report();
    assert_eq!(r.containers_lost, 1);
    assert_eq!(r.containers_pending, 1);
    assert!(r.accounted());

    let deployed = m.commit(14, solve);
    assert!(deployed.is_empty(), "crashed-node placement must not leak");
    assert_eq!(m.stats().commit_conflicts, 1);
    assert_eq!(m.pending_lras(), 2, "app2 re-queued next to the recovery");
    assert!(m.recovery_report().accounted());

    // The recovery batch itself goes through the pipeline: while it is
    // in flight its containers still count as pending.
    let solve2 = m
        .propose_all(20)
        .pop()
        .expect("recovery + resubmission propose");
    let r = m.recovery_report();
    assert_eq!(r.containers_pending, 1, "in-flight recovery is pending");
    assert!(r.accounted());
    let deployed = m.commit(22, solve2);
    assert_eq!(deployed.len(), 2);
    assert!(deployed.iter().any(|d| d.recovered));
    assert!(deployed
        .iter()
        .all(|d| d.nodes.iter().all(|&n| n != victim)));
    let r = m.recovery_report();
    assert_eq!(r.containers_replaced, 1);
    assert_eq!(r.containers_pending, 0);
    assert!(r.accounted());
}

#[test]
fn gamma_cardinality_drift_mid_solve_conflicts() {
    // app1's container is anti-affine to tag "noisy" on its node. At
    // propose time the chosen node is clean (baseline: zero violations);
    // a noisy container lands there mid-solve. Committing the stale
    // proposal would violate a constraint the solver had satisfied —
    // that is γ drift, and the entry must conflict and re-queue.
    let mut m = MedeaScheduler::new(
        ClusterState::homogeneous(2, Resources::new(8192, 8), 1),
        LraAlgorithm::Serial,
        10,
    );
    let avoid_noisy = PlacementConstraint::anti_affinity("b", "noisy", NodeGroupId::node());
    m.submit_lra(
        LraRequest::uniform(
            ApplicationId(1),
            1,
            Resources::new(1024, 1),
            vec![Tag::new("b")],
            vec![avoid_noisy],
        ),
        0,
    )
    .unwrap();
    let solve = m.propose_all(0).pop().expect("proposes");
    let chosen = solve.placements()[0].1[0];

    m.state_mut()
        .allocate(
            ApplicationId(9),
            chosen,
            &req(512, "noisy"),
            ExecutionKind::LongRunning,
        )
        .unwrap();

    let deployed = m.commit(5, solve);
    assert!(deployed.is_empty(), "drifted placement must conflict");
    assert_eq!(m.stats().commit_conflicts, 1);
    assert_eq!(m.pending_lras(), 1);
    // Rolled back cleanly: only the noisy container is live.
    assert_eq!(m.state().num_containers(), 1);

    // The retry solves against current state and avoids the noisy node.
    let retry = m.tick(10);
    assert_eq!(retry.len(), 1);
    assert_ne!(retry[0].nodes[0], chosen);
}

#[test]
fn unrelated_mutations_do_not_conflict() {
    // Drift detection is a baseline diff, not freshness paranoia: live
    // mutations that leave the proposed placement valid commit fine.
    let mut m = MedeaScheduler::new(
        ClusterState::homogeneous(4, Resources::new(8192, 8), 2),
        LraAlgorithm::Serial,
        10,
    );
    m.submit_lra(lra(1, 2, 1024, "a"), 0).unwrap();
    let solve = m.propose_all(0).pop().expect("proposes");
    // Plenty of headroom: small task containers on every node.
    for n in m.state().node_ids().collect::<Vec<_>>() {
        m.state_mut()
            .allocate(ApplicationId(50), n, &req(256, "t"), ExecutionKind::Task)
            .unwrap();
    }
    let deployed = m.commit(3, solve);
    assert_eq!(deployed.len(), 1);
    assert_eq!(m.stats().commit_conflicts, 0);
}

#[test]
fn pipeline_metrics_flow() {
    let registry = MetricsRegistry::new();
    let mut m = MedeaScheduler::new(
        ClusterState::homogeneous(2, Resources::new(4096, 4), 1),
        LraAlgorithm::Serial,
        10,
    )
    .with_metrics(Arc::clone(&registry));
    m.submit_lra(lra(1, 1, 4096, "a"), 0).unwrap();
    let solve = m.propose_all(0).pop().unwrap();
    assert_eq!(registry.snapshot().gauge("core.solve_inflight"), Some(1));
    let chosen = solve.placements()[0].1[0];
    m.state_mut()
        .allocate(
            ApplicationId(9),
            chosen,
            &req(4096, "t"),
            ExecutionKind::Task,
        )
        .unwrap();
    let _ = m.commit(6, solve);
    let snap = registry.snapshot();
    assert_eq!(snap.gauge("core.solve_inflight"), Some(0));
    assert_eq!(snap.counter("core.commit_conflicts_total"), Some(1));
    let staleness = snap
        .histogram("core.placement_staleness_ticks")
        .expect("staleness histogram recorded");
    assert_eq!(staleness.count, 1);
    assert_eq!(staleness.max, 6, "committed 6 ticks after propose");
    // Queue depth was set exactly once, at cycle end, to the re-queued
    // entry count.
    assert_eq!(snap.gauge("core.queue_depth"), Some(1));
}
