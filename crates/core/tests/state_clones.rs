//! Copies of the cluster per scheduling round, as a count: none,
//! whatever the arm, however many shard solves, and with a checkpoint
//! due. Every solver stage (anchor, rounding, residue re-solve,
//! validation, baselines) places on the live state tentatively under a
//! `medea_cluster::Scratch` guard and leaves it as found, so
//! re-introducing a round, per-stage or per-shard copy fails here rather
//! than in a timing.

use std::ops::RangeInclusive;
use std::sync::Arc;

use medea_cluster::{
    state_clones, ApplicationId, ClusterState, NodeGroupId, NodeId, Resources, ShardConfig, Tag,
};
use medea_constraints::PlacementConstraint;
use medea_core::{LraAlgorithm, LraRequest, LraScheduler, MedeaScheduler, PlacerMode};
use medea_journal::{MemoryStorage, Wal};
use medea_obs::MetricsRegistry;

const SHARDS: usize = 4;

fn cluster() -> ClusterState {
    ClusterState::homogeneous(32, Resources::new(16 * 1024, 16), SHARDS)
}

/// Eight two-container apps, each spread by an intra-app node
/// anti-affinity: no affinity footprint, so a sharded round deals them
/// round-robin over all four shards.
fn burst() -> Vec<LraRequest> {
    burst_of(1..=8)
}

fn burst_of(apps: RangeInclusive<u64>) -> Vec<LraRequest> {
    apps.map(|app| {
        let svc = format!("svc{app}");
        LraRequest::uniform(
            ApplicationId(app),
            2,
            Resources::new(1024, 1),
            vec![Tag::new(&svc)],
            vec![PlacementConstraint::anti_affinity(
                svc.as_str(),
                svc.as_str(),
                NodeGroupId::node(),
            )],
        )
    })
    .collect()
}

/// Runs the burst through one round and returns (solves, copies made by
/// the propose phase); commit must make none.
fn round(mut m: MedeaScheduler) -> (usize, u64) {
    let registry = Arc::new(MetricsRegistry::new());
    m.set_metrics(Arc::clone(&registry));
    for r in burst() {
        m.submit_lra(r, 0).unwrap();
    }
    let before = state_clones();
    let solves = m.propose_all(0);
    let copies = state_clones() - before;
    let n = solves.len();
    let deployed: usize = solves.into_iter().map(|s| m.commit(0, s).len()).sum();
    assert_eq!(deployed, 8, "the round must place the whole burst");
    assert_eq!(state_clones() - before, copies, "commit copied the state");
    assert_eq!(
        registry.snapshot().counter("cluster.state_clones_total"),
        Some(copies),
        "the exported counter is the round's count"
    );
    (n, copies)
}

fn relaxed() -> MedeaScheduler {
    let mut m = MedeaScheduler::new(cluster(), LraAlgorithm::Ilp, 10);
    m.lra_scheduler_mut().ilp.mode = PlacerMode::Relaxed;
    m
}

#[test]
fn a_round_makes_no_copy_of_the_cluster() {
    // Four shard solves, each with an anchor and a rounding stage.
    let sharded = relaxed().with_sharding(ShardConfig::with_shards(SHARDS));
    assert_eq!(round(sharded), (SHARDS, 0));
    // One unsharded relaxed solve.
    assert_eq!(round(relaxed()), (1, 0));
    // The heuristic arm.
    let heuristic = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10);
    assert_eq!(round(heuristic), (1, 0));
}

#[test]
fn a_round_with_a_due_checkpoint_makes_no_copy() {
    let mut m = relaxed();
    m.attach_journal(Wal::new(MemoryStorage::new()), 5).unwrap();
    for r in burst() {
        m.submit_lra(r, 0).unwrap();
    }
    let checkpoints = m.journal_stats().checkpoints_installed;
    let before = state_clones();
    let solves = m.propose_all(10);
    // The checkpoint document is serialized from the live state too.
    assert_eq!(state_clones() - before, 0);
    assert_eq!(
        m.journal_stats().checkpoints_installed,
        checkpoints + 1,
        "the checkpoint was due"
    );
    let deployed: usize = solves.into_iter().map(|s| m.commit(10, s).len()).sum();
    assert_eq!(deployed, 8);
}

#[test]
fn placing_on_a_borrowed_state_copies_it_once() {
    let state = cluster();
    for (alg, mode) in [
        (LraAlgorithm::Ilp, PlacerMode::Ilp),
        (LraAlgorithm::Ilp, PlacerMode::Relaxed),
        (LraAlgorithm::TagPopularity, PlacerMode::Ilp),
        (LraAlgorithm::JKubePlusPlus, PlacerMode::Ilp),
        (LraAlgorithm::Yarn, PlacerMode::Ilp),
    ] {
        let mut scheduler = LraScheduler::new(alg);
        scheduler.ilp.mode = mode;
        let before = state_clones();
        let out = scheduler.place(&state, &burst(), &[]);
        assert!(out.iter().all(|o| o.placement().is_some()));
        assert_eq!(state_clones() - before, 1, "{alg}/{}", mode.name());
    }
}

/// Everything of the live state a round could leave behind: the digest
/// (with its `epoch=… next_container=…` header), the index's maintenance
/// counter, the free-memory ordering and the journal's append count.
fn live_view(m: &MedeaScheduler) -> (String, u64, Vec<NodeId>, u64) {
    let s = m.state();
    (
        s.digest(),
        s.index_stats().update_ops,
        s.nodes_by_free_memory().collect(),
        m.journal_stats().records_appended,
    )
}

#[test]
fn propose_leaves_the_live_state_as_found() {
    let sharded = |m: MedeaScheduler| m.with_sharding(ShardConfig::with_shards(SHARDS));
    let heuristic = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10);
    for (name, mut m) in [
        ("4-shard relaxed", sharded(relaxed())),
        ("unsharded relaxed", relaxed()),
        // Shard solves hand the heuristic a restricted `allowed` list.
        ("4-shard heuristic", sharded(heuristic)),
    ] {
        // Interval 0: the attach-time checkpoint is the only one.
        m.attach_journal(Wal::new(MemoryStorage::new()), 0).unwrap();
        // A first burst deployed, so the measured round runs on a used
        // cluster.
        for r in burst_of(1..=8) {
            m.submit_lra(r, 0).unwrap();
        }
        let solves = m.propose_all(0);
        let deployed: usize = solves.into_iter().map(|s| m.commit(0, s).len()).sum();
        assert_eq!(deployed, 8, "{name}: first burst");

        for r in burst_of(9..=16) {
            m.submit_lra(r, 10).unwrap();
        }
        let before = live_view(&m);
        let solves = m.propose_all(10);
        assert!(!solves.is_empty(), "{name}: the round must propose");
        assert_eq!(
            live_view(&m),
            before,
            "{name}: propose changed the live state"
        );
        let deployed: usize = solves.into_iter().map(|s| m.commit(10, s).len()).sum();
        assert_eq!(deployed, 8, "{name}: second burst");
    }
}
