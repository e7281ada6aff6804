//! Cancellation suite: releasing an app must purge it from *everywhere*
//! the scheduler can hold it — deployed allocations, the pending queue,
//! and in-flight solves — so an accepted-but-unplaced release can never
//! be followed by a placement (the container-leak regression), and the
//! recovery ledger `lost = replaced + unplaceable + pending` stays
//! intact when recovery entries are abandoned mid-pipeline.

use medea_cluster::{ApplicationId, ClusterState, NodeId, Resources, Tag};
use medea_core::{
    InflightSolve, LraAlgorithm, LraRequest, MedeaScheduler, NodeReport, RecoveryConfig,
    RecoveryReport,
};
use medea_journal::{MemoryStorage, Wal};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};

fn cluster(nodes: usize) -> ClusterState {
    ClusterState::homogeneous(nodes, Resources::new(8192, 8), 2)
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

fn ledger_intact(r: &RecoveryReport) -> bool {
    r.containers_lost == r.containers_replaced + r.containers_unplaceable + r.containers_pending
}

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
fn cancel_queued_app_never_places() {
    let mut m = MedeaScheduler::new(cluster(4), LraAlgorithm::NodeCandidates, 1);
    let app = ApplicationId(1);
    m.submit_lra(lra(1, 2, 1024, "svc"), 0).unwrap();
    assert_eq!(m.pending_lras(), 1);

    let report = m.cancel_lra(app);
    assert_eq!(report.pending_removed, 1);
    assert_eq!(report.released_containers, 0);
    assert_eq!(report.inflight_cancelled, 0);
    assert_eq!(m.pending_lras(), 0);

    // The scheduling cycle that would have placed it does nothing.
    assert!(m.tick(1).is_empty());
    assert_eq!(m.state().num_containers(), 0);
    assert_eq!(m.stats().lras_deployed, 0);
}

#[test]
fn cancel_deployed_app_releases_containers() {
    let mut m = MedeaScheduler::new(cluster(4), LraAlgorithm::NodeCandidates, 1);
    m.submit_lra(lra(1, 3, 1024, "svc"), 0).unwrap();
    assert_eq!(m.tick(0).len(), 1);
    assert_eq!(m.state().num_containers(), 3);

    let report = m.cancel_lra(ApplicationId(1));
    assert_eq!(report.released_containers, 3);
    assert_eq!(m.state().num_containers(), 0);
}

#[test]
fn cancel_in_flight_entry_is_skipped_at_commit() {
    let mut m = MedeaScheduler::new(cluster(4), LraAlgorithm::NodeCandidates, 1);
    m.submit_lra(lra(1, 2, 1024, "doomed"), 0).unwrap();
    m.submit_lra(lra(2, 1, 1024, "other"), 0).unwrap();
    let solve = m.propose_all(0).pop().expect("solve should start");

    // Release lands mid-solve (the async placement cancel): the app's
    // entry must be dead on arrival at commit.
    let report = m.cancel_lra(ApplicationId(1));
    assert_eq!(report.inflight_cancelled, 1);
    assert_eq!(report.pending_removed, 0);

    let deployed = m.commit(0, solve);
    assert_eq!(deployed.len(), 1, "the other app still deploys");
    assert_eq!(deployed[0].app, ApplicationId(2));
    // Neither deployed nor resubmitted: the cancelled app is gone.
    assert_eq!(m.pending_lras(), 0);
    assert!(m.state().allocations().all(|a| a.app != ApplicationId(1)));
}

#[test]
fn cancelled_app_is_absent_from_queued_lras() {
    let mut m = MedeaScheduler::new(cluster(4), LraAlgorithm::NodeCandidates, 1);
    m.submit_lra(lra(1, 1, 1024, "a"), 0).unwrap();
    m.submit_lra(lra(2, 1, 1024, "b"), 0).unwrap();
    let solve = m.propose_all(0).pop().expect("solve should start");
    m.cancel_lra(ApplicationId(1));
    let queued: Vec<_> = m.queued_lras().iter().map(|q| q.app).collect();
    assert_eq!(queued, vec![ApplicationId(2)]);
    m.commit(0, solve);
}

#[test]
fn cancel_then_resubmit_places_fresh() {
    let mut m = MedeaScheduler::new(cluster(4), LraAlgorithm::NodeCandidates, 1);
    m.submit_lra(lra(1, 2, 1024, "svc"), 0).unwrap();
    m.cancel_lra(ApplicationId(1));

    // The app id is reusable: constraints were deregistered, nothing
    // stale blocks the fresh submission.
    m.submit_lra(lra(1, 2, 1024, "svc"), 1).unwrap();
    let deployed = m.tick(1);
    assert_eq!(deployed.len(), 1);
    assert_eq!(m.state().num_containers(), 2);
}

#[test]
fn cancel_purges_pending_recovery_and_keeps_ledger() {
    let mut m = MedeaScheduler::new(cluster(4), LraAlgorithm::NodeCandidates, 1);
    // Fill the cluster so replacements cannot be placed and recovery
    // entries stay queued (backed off) at cancel time.
    m.submit_lra(lra(1, 4, 7168, "fat"), 0).unwrap();
    assert_eq!(m.tick(0).len(), 1);
    let victim = m
        .state()
        .allocations()
        .find(|a| a.app == ApplicationId(1))
        .map(|a| a.node)
        .expect("app 1 has containers");
    let loss = m.node_lost(victim, 1);
    assert!(loss.lra_containers_lost > 0);
    let before = m.recovery_report();
    assert!(ledger_intact(&before));
    assert!(before.containers_pending > 0);

    let report = m.cancel_lra(ApplicationId(1));
    assert!(report.pending_removed > 0, "recovery entries were queued");
    let after = m.recovery_report();
    assert!(
        ledger_intact(&after),
        "abandoned recovery must stay accounted: {after:?}"
    );
    assert_eq!(after.containers_pending, 0);
    assert_eq!(m.pending_lras(), 0);

    // Nothing is ever placed for the released app again.
    assert!(m.run_to_drain(2, 16).1);
    assert!(m.state().allocations().all(|a| a.app != ApplicationId(1)));
}

#[test]
fn cancel_recovery_in_flight_then_commit_keeps_ledger() {
    let mut m = MedeaScheduler::new(cluster(4), LraAlgorithm::NodeCandidates, 1);
    m.submit_lra(lra(1, 2, 1024, "svc"), 0).unwrap();
    assert_eq!(m.tick(0).len(), 1);
    let victim = m
        .state()
        .allocations()
        .find(|a| a.app == ApplicationId(1))
        .map(|a| a.node)
        .expect("app 1 has containers");
    m.node_lost(victim, 1);
    let lost = m.recovery_report().containers_lost;
    assert!(lost > 0);

    // Recovery entries enter a solve, then the app is released.
    let solve = m.propose_all(1).pop().expect("recovery solve");
    m.cancel_lra(ApplicationId(1));
    assert!(ledger_intact(&m.recovery_report()));
    let deployed = m.commit(1, solve);
    assert!(deployed.is_empty(), "cancelled recovery must not deploy");

    let after = m.recovery_report();
    assert!(ledger_intact(&after), "{after:?}");
    assert_eq!(after.containers_pending, 0);
    assert_eq!(after.containers_lost, lost);
    assert!(m.state().allocations().all(|a| a.app != ApplicationId(1)));
}

#[test]
fn restart_drops_cancelled_inflight_entries() {
    let mut m = MedeaScheduler::new(cluster(4), LraAlgorithm::NodeCandidates, 10);
    m.submit_lra(lra(1, 2, 1024, "doomed"), 0).unwrap();
    m.submit_lra(lra(2, 1, 1024, "other"), 0).unwrap();
    let solve = m.propose_all(0).pop().expect("solve should start");
    m.cancel_lra(ApplicationId(1));

    let report = m.restart(5, &faithful_reports(&m)).unwrap();
    assert_eq!(
        report.inflight_lras_requeued, 1,
        "only the live entry requeues"
    );
    assert!(ledger_intact(&m.recovery_report()));

    // Stale solve refused; next cycle places only the surviving app.
    assert!(m.commit(5, solve).is_empty());
    let deployed = m.tick(10);
    assert_eq!(deployed.len(), 1);
    assert_eq!(deployed[0].app, ApplicationId(2));
    assert!(m.state().allocations().all(|a| a.app != ApplicationId(1)));
}

#[test]
fn complete_lra_purges_undeployed_apps_too() {
    // The review's medium finding: complete_lra on a still-queued app
    // must not leave the pending entry behind (it would later place with
    // its constraints already deregistered).
    let mut m = MedeaScheduler::new(cluster(4), LraAlgorithm::NodeCandidates, 1);
    m.submit_lra(
        LraRequest::uniform(
            ApplicationId(1),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("svc")],
            vec![medea_constraints::parse_constraint("{svc, {svc, 0, 0}, node}").unwrap()],
        ),
        0,
    )
    .unwrap();
    m.complete_lra(ApplicationId(1));
    assert_eq!(m.pending_lras(), 0);
    assert!(m.tick(1).is_empty());
    assert_eq!(m.state().num_containers(), 0);
}

#[test]
fn ledger_survives_interleaved_cancel_scale_down_and_node_crash() {
    // The lifecycle satellite regression: cancel and scale-down share
    // one container-release helper, so interleaving a node crash (losses
    // enter the recovery ledger), a scale-down (retracts pending
    // recovery entries and releases survivors), and a cancel (abandons
    // whatever is left mid-pipeline) on the SAME app must keep
    // `lost = replaced + unplaceable + pending` balanced at every step.
    use medea_cluster::ContainerRequest;
    use medea_core::AppSpec;

    let mut m = MedeaScheduler::new(cluster(4), LraAlgorithm::NodeCandidates, 10);
    let app = ApplicationId(1);
    m.submit_managed_lra(
        app,
        ContainerRequest::new(Resources::new(1024, 1), [Tag::new("svc")]),
        vec![],
        AppSpec::replicas(6).with_budget(2),
    )
    .unwrap();
    m.tick(0);
    assert_eq!(m.app_lifecycle(app).expect("managed").running, 6);

    // Crash a node hosting the app: its losses enter the ledger as
    // pending recovery work.
    let victim = m
        .state()
        .allocations()
        .find(|a| a.app == app)
        .map(|a| a.node)
        .expect("app deployed");
    let loss = m.node_lost(victim, 5);
    assert!(loss.lra_containers_lost > 0);
    let r = m.recovery_report();
    assert!(ledger_intact(&r), "{r:?}");
    assert!(r.containers_pending > 0);

    // Scale down below the surviving count while the recovery entries
    // are still queued: the reconciler must retract the undeployed
    // recovery work through the shared release helper (re-bucketing it
    // in the ledger) before releasing deployed survivors.
    assert!(m.set_replicas(app, 2));
    m.tick(10);
    let r = m.recovery_report();
    assert!(ledger_intact(&r), "after scale-down: {r:?}");
    assert!(m.app_lifecycle(app).expect("managed").running <= 6);

    // Crash a second node mid-drain, then cancel the app outright with
    // the fresh losses still unresolved.
    let victim2 = m
        .state()
        .allocations()
        .find(|a| a.app == app)
        .map(|a| a.node);
    if let Some(n) = victim2 {
        m.node_lost(n, 15);
        let r = m.recovery_report();
        assert!(ledger_intact(&r), "after second crash: {r:?}");
    }
    m.cancel_lra(app);
    let r = m.recovery_report();
    assert!(ledger_intact(&r), "after cancel: {r:?}");

    // Nothing of the app survives anywhere, and subsequent rounds place
    // nothing on its behalf.
    assert!(m.app_lifecycle(app).is_none(), "spec purged by cancel");
    assert!(m.state().allocations().all(|a| a.app != app));
    assert!(m.tick(20).is_empty());
    assert!(m.tick(30).is_empty());
    assert!(m.state().allocations().all(|a| a.app != app));
    let r = m.recovery_report();
    assert!(ledger_intact(&r), "steady state: {r:?}");
    assert_eq!(r.containers_pending, 0, "no orphaned recovery work");
}

/// The hand-picked orders above each pin one interleaving; this drives
/// seeded random ones. Every public operation that moves a recovery
/// container between ledger buckets — or moves the entries holding them
/// between the queue, an in-flight solve and the cluster — is drawn at
/// random, solves are committed in order, late, after a restart, or
/// never, and `lost = replaced + unplaceable + pending` must hold after
/// **every** step.
#[test]
fn ledger_balances_after_every_step_of_seeded_interleavings() {
    const NODES: u32 = 6;
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x1ED6_E200 ^ seed);
        let mut m = MedeaScheduler::new(cluster(NODES as usize), LraAlgorithm::NodeCandidates, 2);
        // Small budgets so exhaustion (unplaceable, dropped) is reached.
        m.max_attempts = 3;
        m.recovery = RecoveryConfig {
            max_attempts: 3,
            base_backoff: 1,
            max_backoff: 4,
            ..RecoveryConfig::default()
        };
        if seed % 2 == 1 {
            m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
        }
        let mut held: Vec<InflightSolve> = Vec::new();
        let mut apps = 0u64;
        let mut now = 0u64;
        for step in 0..200 {
            now += rng.random_range(0..3u64);
            let op = rng.random_range(0..11u32);
            match op {
                0 | 1 => {
                    apps += 1;
                    let count = rng.random_range(1..4usize);
                    let mem = rng.random_range(1..4u64) * 1024;
                    m.submit_lra(lra(apps, count, mem, "svc"), now).unwrap();
                }
                2 => {
                    m.node_lost(NodeId(rng.random_range(0..NODES)), now);
                }
                3 => m.node_recovered(NodeId(rng.random_range(0..NODES))),
                4 => {
                    m.cancel_lra(ApplicationId(rng.random_range(0..apps + 1)));
                }
                5 => {
                    // Scale up or down; adopts a deployed unmanaged app.
                    let app = ApplicationId(rng.random_range(0..apps + 1));
                    m.set_replicas(app, rng.random_range(0..6usize));
                }
                6 => held.extend(m.propose_all(now)),
                7 if !held.is_empty() => {
                    m.commit(now, held.remove(0));
                }
                8 if !held.is_empty() => {
                    // Out of order, or dropped: never committed.
                    let solve = held.swap_remove(rng.random_range(0..held.len()));
                    if rng.random_range(0..2u32) == 0 {
                        m.commit(now, solve);
                    }
                }
                9 => {
                    // Solves still held are now from a dead incarnation;
                    // committing them later must change nothing.
                    m.restart(now, &faithful_reports(&m)).unwrap();
                }
                _ => {
                    m.tick(now);
                }
            }
            let r = m.recovery_report();
            assert!(ledger_intact(&r), "seed {seed} step {step} op {op}: {r:?}");
        }
        // Whatever was never committed died with the last incarnation.
        drop(held);
        m.restart(now, &faithful_reports(&m)).unwrap();
        for node in 0..NODES {
            m.node_recovered(NodeId(node));
        }
        m.run_to_drain(now, 256);
        assert!(!m.solve_inflight(), "seed {seed}: in-flight entry left");
        assert!(m.queued_lras().iter().all(|q| !q.in_flight), "seed {seed}");
        let r = m.recovery_report();
        assert!(ledger_intact(&r), "seed {seed} after drain: {r:?}");
        assert_eq!(m.audit(), Ok(()), "seed {seed}");
    }
}

// Keep NodeId referenced so the import list mirrors the sibling suites
// even if future edits drop the direct uses above.
#[allow(dead_code)]
fn _node_type(n: NodeId) -> u32 {
    n.0
}
