//! Copies of the cluster per scheduling round, as a count: the round's
//! snapshot is the only one, whatever the arm and however many shard
//! solves share it. Every solver stage (anchor, rounding, repair, residue
//! re-solve, validation, baselines) places on that snapshot tentatively
//! under a `medea_cluster::Scratch` guard, so re-introducing a per-stage
//! or per-shard copy fails here rather than in a timing.

use std::sync::Arc;

use medea_cluster::{
    state_clones, ApplicationId, ClusterState, NodeGroupId, Resources, ShardConfig, Tag,
};
use medea_constraints::PlacementConstraint;
use medea_core::{LraAlgorithm, LraRequest, LraScheduler, MedeaScheduler, PlacerMode};
use medea_obs::MetricsRegistry;

const SHARDS: usize = 4;

fn cluster() -> ClusterState {
    ClusterState::homogeneous(32, Resources::new(16 * 1024, 16), SHARDS)
}

/// Eight two-container apps, each spread by an intra-app node
/// anti-affinity: no affinity footprint, so a sharded round deals them
/// round-robin over all four shards.
fn burst() -> Vec<LraRequest> {
    (1..=8u64)
        .map(|app| {
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
fn a_round_copies_the_cluster_once() {
    // Four shard solves on one snapshot (was 9: one per anchor and per
    // rounding, on top of the snapshot).
    let sharded = relaxed().with_sharding(ShardConfig::with_shards(SHARDS));
    assert_eq!(round(sharded), (SHARDS, 1));
    // One unsharded relaxed solve (was 3).
    assert_eq!(round(relaxed()), (1, 1));
    // The heuristic arm (was 2).
    let heuristic = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10);
    assert_eq!(round(heuristic), (1, 1));
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
